#include "worker.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/table.hpp"

namespace fastbcnn::serve {

EngineWorker::EngineWorker(std::size_t index,
                           const ModelRegistry *registry,
                           const BrownoutController *brownout)
    : index_(index), registry_(registry), brownout_(brownout)
{
    FASTBCNN_CHECK(registry_ != nullptr,
                   "EngineWorker needs a model registry");
    FASTBCNN_CHECK(index_ < registry_->replicas(),
                   "worker index exceeds the registry's replica count");
}

std::shared_ptr<const VersionedEngine>
EngineWorker::replica(const std::string &model_id) const
{
    return registry_->acquire(model_id, index_);
}

void
EngineWorker::runBatch(std::vector<PendingRequest> &&batch,
                       const CompleteFn &complete)
{
    FASTBCNN_CHECK(!batch.empty(), "runBatch on an empty batch");
    // Acquire the replica once for the whole batch: same-model
    // grouping means every request shares this engine's calibrated
    // thresholds and predictor state, and the single acquisition is
    // what makes hot-swaps atomic — every request in the batch runs
    // on exactly one version, pinned by this shared_ptr until the
    // batch completes.
    const std::string &model = batch.front().request.modelId;
    const std::shared_ptr<const VersionedEngine> pinned =
        replica(model);
    FASTBCNN_CHECK(pinned != nullptr,
                   format("worker %zu has no replica of model '%s' "
                          "(admission should have rejected this)",
                          index_, model.c_str())
                       .c_str());
    const FastBcnnEngine *engine = pinned->engine.get();
    const std::size_t batchSize = batch.size();

    for (PendingRequest &pending : batch) {
        FASTBCNN_DCHECK(pending.request.modelId == model,
                        "mixed-model batch");
        InferResponse response;
        response.id = pending.id;
        response.batchSize = batchSize;
        response.worker = index_;
        response.modelVersion = pinned->version;

        const ServeClock::time_point now = ServeClock::now();
        if (pending.request.token.cancelled()) {
            response.outcome = Outcome::Cancelled;
            response.error = errorf(ErrorCode::Cancelled,
                                    "cancelled before dispatch");
            complete(std::move(pending), std::move(response));
            continue;
        }
        if (pending.expired(now)) {
            response.outcome = Outcome::Shed;
            response.error =
                errorf(ErrorCode::DeadlineExceeded,
                       "deadline (%.3f ms) expired before dispatch",
                       pending.request.deadlineMs);
            complete(std::move(pending), std::move(response));
            continue;
        }

        McOptions mc = pending.request.mc.applyTo(engine->options().mc);
        if (pending.hasDeadline) {
            // Hand the MC runner only what is left of the end-to-end
            // budget, tightened further by any replica-level deadline.
            const double remaining = pending.remainingMs(now);
            mc.deadlineMs = mc.deadlineMs > 0.0
                                ? std::min(mc.deadlineMs, remaining)
                                : remaining;
        }
        // Brownout rides on top of the merged options: the ladder's
        // quality levers (adaptive exit, sample-budget clamp) degrade
        // the run, never past what the caller explicitly asked for.
        if (brownout_ != nullptr) {
            response.brownoutLevel =
                brownout_->apply(mc, pending.request.priority);
        }
        response.precision = mc.precision;
        const ServeClock::time_point begin = ServeClock::now();
        const Tensor &input = pending.request.input;
        Status failure;
        const auto keep = [&failure](auto run, auto &slot) {
            if (run.hasValue())
                slot = std::move(run).value();
            else
                failure = std::move(run).takeError();
        };
        if (pending.request.useGuardedSkip)
            keep(engine->tryGuardedMc(input, mc), response.guarded);
        else
            keep(engine->tryMcReference(input, mc), response.result);
        response.serviceMs = elapsedMs(begin, ServeClock::now());
        if (failure.isOk()) {
            response.outcome = Outcome::Ok;
            response.effectiveSamples =
                response.served()->census.survived;
        } else {
            response.outcome = Outcome::Failed;
            response.error = std::move(failure).withContext(
                format("serving model '%s'", model.c_str()));
        }
        complete(std::move(pending), std::move(response));
    }
}

} // namespace fastbcnn::serve
