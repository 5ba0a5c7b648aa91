#include "request.hpp"

#include "common/check.hpp"

namespace fastbcnn::serve {

McOptions
McOverrides::applyTo(McOptions base) const
{
    base.samples = samples.value_or(base.samples);
    base.quorum = quorum.value_or(base.quorum);
    base.threads = threads.value_or(base.threads);
    base.seed = seed.value_or(base.seed);
    base.precision = precision.value_or(base.precision);
    base.targetCiWidth = targetCiWidth.value_or(base.targetCiWidth);
    base.minSamples = minSamples.value_or(base.minSamples);
    base.sampleBudget = sampleBudget.value_or(base.sampleBudget);
    if (faults != nullptr)
        base.faults = faults;
    return base;
}

const char *
priorityName(Priority priority)
{
    switch (priority) {
      case Priority::Interactive: return "Interactive";
      case Priority::Standard: return "Standard";
      case Priority::Background: return "Background";
    }
    panic("unknown Priority %d", static_cast<int>(priority));
}

const char *
brownoutLevelName(BrownoutLevel level)
{
    switch (level) {
      case BrownoutLevel::Normal: return "Normal";
      case BrownoutLevel::AdaptiveExit: return "AdaptiveExit";
      case BrownoutLevel::BudgetClamp: return "BudgetClamp";
      case BrownoutLevel::Shed: return "Shed";
    }
    panic("unknown BrownoutLevel %d", static_cast<int>(level));
}

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Ok: return "Ok";
      case Outcome::Shed: return "Shed";
      case Outcome::Cancelled: return "Cancelled";
      case Outcome::Failed: return "Failed";
    }
    panic("unknown Outcome %d", static_cast<int>(outcome));
}

const char *
outcomeStatKey(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Ok: return "ok";
      case Outcome::Shed: return "shed";
      case Outcome::Cancelled: return "cancelled";
      case Outcome::Failed: return "failed";
    }
    panic("unknown Outcome %d", static_cast<int>(outcome));
}

} // namespace fastbcnn::serve
