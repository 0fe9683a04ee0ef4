/**
 * @file
 * SLIMpro management interface.
 *
 * The X-Gene 2's Scalable Lightweight Intelligent Management
 * processor regulates supply voltages, reads system sensors and
 * exposes the error-reporting infrastructure over an I2C link the
 * kernel can drive (paper section 2.1). The characterization
 * framework performs all voltage/frequency manipulation through
 * this interface, like the real framework does through the SLIMpro.
 */

#ifndef VMARGIN_SIM_SLIMPRO_HH
#define VMARGIN_SIM_SLIMPRO_HH

#include "platform.hh"

namespace vmargin::sim
{

/** Management-plane access to a platform. */
class SlimPro
{
  public:
    /** @param platform machine to manage (not owned) */
    explicit SlimPro(Platform *platform);

    /**
     * Set the shared PMD domain voltage. Returns false for illegal
     * setpoints (off-grid, above nominal, below the regulator
     * floor) and when the machine is unresponsive.
     */
    bool setPmdVoltage(MilliVolt mv);

    /** Set the PCP/SoC domain voltage. Same failure rules. */
    bool setSocVoltage(MilliVolt mv);

    /** Set one PMD's frequency. Same failure rules. */
    bool setPmdFrequency(PmdId pmd, MegaHertz mhz);

    /** Current PMD domain voltage. */
    MilliVolt pmdVoltage() const;

    /**
     * Package temperature sensor. Under an installed fault plan the
     * read may return the previously sampled value (a stale I2C
     * sensor read) instead of the live one.
     */
    Celsius readTemperature() const;

    /**
     * Ask the fan controller to hold @p target. Returns false when
     * the transaction fails (machine down or injected fault).
     */
    bool setFanTarget(Celsius target);

    /**
     * The temperature sensor's stale-read cache. A stale I2C read
     * returns this previously sampled value, so the cache is part of
     * the management plane's observable state: the daemon journal
     * checkpoints it so a resumed session sees the same stale reads
     * an uninterrupted one would.
     */
    struct SensorCache
    {
        bool hasTemperature = false;
        Celsius temperature = 0.0;
    };

    /** Snapshot the stale-read cache (journal checkpoint). */
    SensorCache sensorCache() const;

    /** Restore a snapshot taken by sensorCache() (journal resume). */
    void restoreSensorCache(const SensorCache &cache);

  private:
    bool managementReady() const;

    /**
     * Consult the fault plan for one write transaction. Returns true
     * when the transaction must fail; a ManagementHang additionally
     * wedges the machine.
     */
    bool writeTransactionFails();

    /** True when a read should return its stale cached value. */
    bool readIsStale() const;

    Platform *platform_;
    mutable Celsius lastTemperature_ = 0.0;
    mutable bool hasLastTemperature_ = false;
    mutable MilliVolt lastPmdVoltage_ = 0;
    mutable bool hasLastPmdVoltage_ = false;
};

} // namespace vmargin::sim

#endif // VMARGIN_SIM_SLIMPRO_HH
