#include "recovery.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vmargin
{

void
RetryPolicy::validate() const
{
    if (attemptsPerOp < 1)
        util::fatalError("retry policy: attemptsPerOp must be >= 1");
    if (watchdogPolls < 1)
        util::fatalError("retry policy: watchdogPolls must be >= 1");
    if (backoffCapUs < backoffBaseUs)
        util::fatalError(
            "retry policy: backoffCapUs below backoffBaseUs");
}

const char *
fallbackReasonName(FallbackReason reason)
{
    switch (reason) {
    case FallbackReason::None:
        return "none";
    case FallbackReason::RetriesExhausted:
        return "retries-exhausted";
    case FallbackReason::MachineUnresponsive:
        return "machine-unresponsive";
    }
    return "unknown";
}

const char *
clampReasonName(ClampReason reason)
{
    switch (reason) {
    case ClampReason::None:
        return "none";
    case ClampReason::CrashStorm:
        return "crash-storm";
    case ClampReason::WatchdogExhausted:
        return "watchdog-exhausted";
    }
    return "unknown";
}

void
RecoveryTelemetry::merge(const RecoveryTelemetry &other)
{
    retries += other.retries;
    backoffEvents += other.backoffEvents;
    backoffUsTotal += other.backoffUsTotal;
    watchdogRetries += other.watchdogRetries;
    lostMeasurements += other.lostMeasurements;
    fallbackRounds += other.fallbackRounds;
}

RecoveryTelemetry
RecoveryTelemetry::since(const RecoveryTelemetry &baseline) const
{
    RecoveryTelemetry delta;
    delta.retries = retries - baseline.retries;
    delta.backoffEvents = backoffEvents - baseline.backoffEvents;
    delta.backoffUsTotal = backoffUsTotal - baseline.backoffUsTotal;
    delta.watchdogRetries =
        watchdogRetries - baseline.watchdogRetries;
    delta.lostMeasurements =
        lostMeasurements - baseline.lostMeasurements;
    delta.fallbackRounds = fallbackRounds - baseline.fallbackRounds;
    return delta;
}

ManagedSlimPro::ManagedSlimPro(sim::Platform *platform,
                               sim::SlimPro *slimpro,
                               sim::Watchdog *watchdog,
                               RetryPolicy policy)
    : platform_(platform), slimpro_(slimpro), watchdog_(watchdog),
      policy_(policy)
{
    if (!platform_ || !slimpro_ || !watchdog_)
        util::panicf("ManagedSlimPro: null dependency");
    policy_.validate();
}

void
ManagedSlimPro::setPolicy(const RetryPolicy &policy)
{
    policy.validate();
    policy_ = policy;
}

uint64_t
ManagedSlimPro::backoffUs(int attempt) const
{
    uint64_t delay = policy_.backoffBaseUs;
    for (int i = 1; i < attempt && delay < policy_.backoffCapUs; ++i)
        delay *= 2;
    return std::min(delay, policy_.backoffCapUs);
}

bool
ManagedSlimPro::setPmdVoltage(MilliVolt mv)
{
    return withRetry([&] { return slimpro_->setPmdVoltage(mv); });
}

bool
ManagedSlimPro::setSocVoltage(MilliVolt mv)
{
    return withRetry([&] { return slimpro_->setSocVoltage(mv); });
}

bool
ManagedSlimPro::setPmdFrequency(PmdId pmd, MegaHertz mhz)
{
    return withRetry(
        [&] { return slimpro_->setPmdFrequency(pmd, mhz); });
}

bool
ManagedSlimPro::setFanTarget(Celsius target)
{
    return withRetry([&] { return slimpro_->setFanTarget(target); });
}

bool
ManagedSlimPro::revive(sim::WatchdogContext context)
{
    if (platform_->responsive())
        return true;
    for (int poll = 0; poll < policy_.watchdogPolls; ++poll) {
        if (poll > 0)
            ++telemetry_.watchdogRetries;
        (void)watchdog_->ensureResponsive(context);
        if (platform_->responsive())
            return true;
    }
    return platform_->responsive();
}

} // namespace vmargin
