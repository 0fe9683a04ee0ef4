#include "slimpro.hh"

#include "util/logging.hh"

namespace vmargin::sim
{

SlimPro::SlimPro(Platform *platform) : platform_(platform)
{
    if (!platform_)
        util::panicf("SlimPro: null platform");
}

bool
SlimPro::managementReady() const
{
    // The SLIMpro lives in the standby power domain and keeps
    // running across core crashes, but the kernel-side I2C path we
    // model is only usable while the machine is up.
    return platform_->responsive();
}

bool
SlimPro::writeTransactionFails()
{
    FaultPlan *plan = platform_->faultPlan();
    if (!plan)
        return false;
    if (plan->shouldInject(FaultOp::ManagementHang)) {
        // The transaction wedges the kernel I2C driver: the write is
        // lost and the machine stops answering on the console. Only
        // the watchdog notices.
        platform_->hang();
        return true;
    }
    return plan->shouldInject(FaultOp::I2cWrite);
}

bool
SlimPro::readIsStale() const
{
    FaultPlan *plan = platform_->faultPlan();
    return plan && plan->shouldInject(FaultOp::StaleRead);
}

bool
SlimPro::setPmdVoltage(MilliVolt mv)
{
    if (!managementReady() || writeTransactionFails())
        return false;
    return platform_->chip().pmdDomain().set(mv);
}

bool
SlimPro::setSocVoltage(MilliVolt mv)
{
    if (!managementReady() || writeTransactionFails())
        return false;
    return platform_->chip().socDomain().set(mv);
}

bool
SlimPro::setPmdFrequency(PmdId pmd, MegaHertz mhz)
{
    if (!managementReady() || writeTransactionFails())
        return false;
    return platform_->chip().pmd(pmd).clock().set(mhz);
}

MilliVolt
SlimPro::pmdVoltage() const
{
    const MilliVolt fresh = platform_->chip().pmdDomain().voltage();
    if (hasLastPmdVoltage_ && readIsStale())
        return lastPmdVoltage_;
    lastPmdVoltage_ = fresh;
    hasLastPmdVoltage_ = true;
    return fresh;
}

Celsius
SlimPro::readTemperature() const
{
    const Celsius fresh = platform_->thermal().temperature();
    if (hasLastTemperature_ && readIsStale())
        return lastTemperature_;
    lastTemperature_ = fresh;
    hasLastTemperature_ = true;
    return fresh;
}

bool
SlimPro::setFanTarget(Celsius target)
{
    if (!managementReady() || writeTransactionFails())
        return false;
    platform_->thermal().setTarget(target);
    return true;
}

SlimPro::SensorCache
SlimPro::sensorCache() const
{
    SensorCache cache;
    cache.hasTemperature = hasLastTemperature_;
    cache.temperature = lastTemperature_;
    return cache;
}

void
SlimPro::restoreSensorCache(const SensorCache &cache)
{
    hasLastTemperature_ = cache.hasTemperature;
    lastTemperature_ = cache.temperature;
}

} // namespace vmargin::sim
