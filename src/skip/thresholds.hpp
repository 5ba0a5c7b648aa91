/**
 * @file
 * Per-kernel prediction thresholds α (Section IV-A2).  Thresholds are
 * model-dependent, produced offline by the optimizer (Algorithm 1) and
 * consumed at runtime by the central predictor.
 */

#ifndef FASTBCNN_SKIP_THRESHOLDS_HPP
#define FASTBCNN_SKIP_THRESHOLDS_HPP

#include <map>
#include <vector>

#include "bayes/topology.hpp"

namespace fastbcnn {

/**
 * The α values for every kernel of every conv block, keyed by the
 * conv's node id.  α is an int: a neuron with N_d < α is predicted
 * unaffected (Eq. 5); α = 0 disables prediction for that kernel.
 */
class ThresholdSet
{
  public:
    ThresholdSet() = default;

    /** Initialise every kernel of every block of @p topo to @p value. */
    ThresholdSet(const BcnnTopology &topo, int value);

    /** @return threshold of kernel @p m of the conv at node @p conv. */
    int of(NodeId conv, std::size_t m) const;

    /** Set the threshold of kernel @p m of the conv at @p conv. */
    void set(NodeId conv, std::size_t m, int value);

    /** @return all kernel thresholds of one conv (empty if unknown). */
    const std::vector<int> &layer(NodeId conv) const;

    /** @return true when the set holds thresholds for node @p conv. */
    bool has(NodeId conv) const;

    /** @return every conv's kernel thresholds (guard iteration). */
    const std::map<NodeId, std::vector<int>> &all() const
    {
        return byConv_;
    }

    /** @return the mean threshold across every kernel (diagnostics). */
    double mean() const;

  private:
    std::map<NodeId, std::vector<int>> byConv_;
};

} // namespace fastbcnn

#endif // FASTBCNN_SKIP_THRESHOLDS_HPP
