#include "core.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/scale.hh"

namespace vmargin::sim
{

namespace
{

/** Run-to-run threshold jitter (mV, one sigma) per effect class. */
constexpr double kSigmaSdc = 2.5;
constexpr double kSigmaCe = 2.5;
constexpr double kSigmaUe = 3.0;
constexpr double kSigmaAc = 4.5;
constexpr double kSigmaSc = 1.2;

/** Timing-margin loss per degree C above the 43 C setpoint. */
constexpr double kTempSlopeMvPerC = 0.45;

/** Depth below a jittered threshold, in millivolts (>= 0). */
double
depthBelow(double threshold, MilliVolt v)
{
    return std::max(0.0, threshold - static_cast<double>(v));
}

} // namespace

Core::Core(CoreId id, const XGene2Params &params,
           CacheHierarchy *caches)
    : id_(id), params_(params), caches_(caches)
{
    params_.validate();
    if (id_ < 0 || id_ >= params_.numCores)
        util::panicf("Core: id ", id_, " out of range");
    if (!caches_)
        util::panicf("Core ", id_, ": null cache hierarchy");
}

RunResult
Core::run(const wl::WorkloadProfile &workload, const OnsetSet &onsets,
          const ExecutionConfig &config)
{
    workload.validate();
    pmu_.reset();

    util::Rng fault_rng(util::mixSeed(config.seed, 0xFA17ULL));
    util::Rng addr_seed_rng(util::mixSeed(config.seed, 0xADD2ULL));
    wl::ActivityGenerator generator(
        workload, util::mixSeed(config.seed, 0xAC71ULL));

    // Per-run jittered failure thresholds (run-to-run variation of
    // real silicon under fixed conditions). Heat eats timing margin:
    // above the 43 C calibration point every threshold moves up.
    const double heat =
        kTempSlopeMvPerC * (config.temperature - 43.0);
    const double t_sdc =
        onsets.sdc + heat + fault_rng.gaussian(0, kSigmaSdc);
    const double t_ce =
        onsets.ce + heat + fault_rng.gaussian(0, kSigmaCe);
    const double t_ue =
        onsets.ue + heat + fault_rng.gaussian(0, kSigmaUe);
    const double t_ac =
        onsets.ac + heat + fault_rng.gaussian(0, kSigmaAc);
    const double t_sc =
        onsets.sc + heat + fault_rng.gaussian(0, kSigmaSc);

    const MilliVolt v = config.voltage;
    const uint32_t epochs = config.maxEpochs
                                ? std::min(config.maxEpochs,
                                           workload.epochs)
                                : workload.epochs;

    wl::AddressStream data_stream(
        static_cast<uint64_t>(workload.workingSetKb * 1024.0),
        workload.spatialLocality, workload.temporalLocality,
        addr_seed_rng.next());
    wl::AddressStream instr_stream(
        static_cast<uint64_t>(workload.instrFootprintKb * 1024.0),
        0.95, 0.6, addr_seed_rng.next());

    RunResult result;
    result.voltage = v;
    result.frequency = config.frequency;

    uint64_t total_instr = 0;
    uint64_t total_cycles = 0;

    const uint64_t store_threshold = util::Rng::bernoulliThreshold(
        workload.memAccessFrac() > 0.0
            ? workload.mix.store / workload.memAccessFrac()
            : 0.0);

    double prev_ipc = -1.0;

    const uint32_t data_samples = config.dataSamplesPerEpoch;
    const uint32_t instr_samples = config.instrSamplesPerEpoch;
    writeScratch_.resize(data_samples);
    addrScratch_.resize(std::max(data_samples, instr_samples));

    for (uint32_t epoch = 0; epoch < epochs; ++epoch) {
        const wl::EpochActivity act = generator.epoch(epoch);
        total_instr += act.instructions;
        total_cycles += act.cycles;

        // di/dt droop: an abrupt activity swing between epochs digs
        // into the timing margin for the epoch where it happens.
        double droop_mv = 0.0;
        if (config.droopSensitivityMv > 0.0 && prev_ipc >= 0.0) {
            const double swing = std::fabs(act.ipc() - prev_ipc) /
                                 workload.ipcNominal;
            droop_mv = config.droopSensitivityMv * swing;
        }
        prev_ipc = act.ipc();

        // ---- drive the caches with sampled streams --------------
        // The write-intent draws and the address draws come from
        // independent RNG streams, so drawing each stream into its
        // scratch buffer up front yields exactly the per-stream
        // sequences of the old interleaved loop — and lets the
        // hierarchy walk the whole sample array in one batch.
        for (uint32_t s = 0; s < data_samples; ++s)
            writeScratch_[s] =
                fault_rng.bernoulliBelow(store_threshold) ? 1 : 0;
        for (uint32_t s = 0; s < data_samples; ++s)
            addrScratch_[s] = data_stream.next();
        const DataBatchCounts data = caches_->dataAccessBatch(
            id_, addrScratch_.data(), writeScratch_.data(),
            data_samples);
        for (uint32_t s = 0; s < instr_samples; ++s)
            addrScratch_[s] = instr_stream.next();
        const InstrBatchCounts instr = caches_->instrFetchBatch(
            id_, addrScratch_.data(), instr_samples);

        // Scale sampled miss counts up to the epoch's true traffic.
        const double mem_ops =
            static_cast<double>(act.loads + act.stores);
        const double dscale =
            data_samples ? mem_ops / data_samples : 0.0;
        const double iscale =
            instr_samples
                ? static_cast<double>(act.instructions) / 4.0 /
                      instr_samples
                : 0.0;
        const uint64_t l1d_miss =
            util::scaleCount(data.l1Miss, dscale);
        const uint64_t l1d_wb =
            util::scaleCount(data.writebacksFromL1, dscale);
        const uint64_t l2_miss =
            util::scaleCount(data.l2Miss, dscale);
        const uint64_t l2_wb =
            util::scaleCount(data.writebacksFromL2, dscale);
        const uint64_t l3_miss =
            util::scaleCount(data.l3Miss, dscale);
        const uint64_t l1i_miss =
            util::scaleCount(instr.l1Miss, iscale);
        const uint64_t l2i_miss =
            util::scaleCount(instr.l2Miss, iscale);

        updatePmu(act, workload, l1d_miss, l1d_wb, l2_miss, l2_wb,
                  l3_miss, l1i_miss, l2i_miss);
        result.epochsExecuted = epoch + 1;

        // ---- fault injection ------------------------------------
        // The droop raises every effective threshold this epoch.
        const double e_sdc = t_sdc + droop_mv;
        const double e_ce = t_ce + droop_mv;
        const double e_ue = t_ue + droop_mv;
        const double e_ac = t_ac + droop_mv;
        const double e_sc = t_sc + droop_mv;
        // Corrected errors: ECC events on the L2/L3 access paths.
        if (static_cast<double>(v) <= e_ce) {
            const double depth = depthBelow(e_ce, v);
            const uint64_t events =
                1 + fault_rng.poisson(0.6 * (1.0 + 0.4 * depth));
            result.correctedErrors += events;
            ErrorRecord record;
            record.kind = ErrorKind::Corrected;
            record.core = id_;
            record.epoch = epoch;
            record.count = events;
            const double where = fault_rng.uniform();
            record.site = where < 0.60   ? ErrorSite::L2Cache
                          : where < 0.90 ? ErrorSite::L3Cache
                          : where < 0.98 ? ErrorSite::L1Cache
                                         : ErrorSite::Dram;
            result.errors.push_back(record);
            pmu_.add(PmuEvent::MEMORY_ERROR, events);
        }
        // Uncorrected (but detected) errors.
        if (static_cast<double>(v) <= e_ue) {
            const double depth = depthBelow(e_ue, v);
            const uint64_t events =
                fault_rng.poisson(0.10 * (1.0 + 0.3 * depth));
            if (events) {
                result.uncorrectedErrors += events;
                ErrorRecord record;
                record.kind = ErrorKind::Uncorrected;
                record.core = id_;
                record.epoch = epoch;
                record.count = events;
                record.site = fault_rng.bernoulli(0.7)
                                  ? ErrorSite::L2Cache
                                  : ErrorSite::L3Cache;
                result.errors.push_back(record);
                pmu_.add(PmuEvent::MEMORY_ERROR, events);
            }
        }
        // Silent data corruption from datapath timing failures.
        if (static_cast<double>(v) <= e_sdc) {
            const double depth = depthBelow(e_sdc, v);
            result.sdcEvents +=
                fault_rng.poisson(0.30 * (1.0 + 0.5 * depth));
        }
        // System crash: the machine goes unresponsive. Checked
        // before the application-crash draw — deep undervolt hangs
        // the whole machine faster than it can kill one process.
        if (static_cast<double>(v) <= e_sc) {
            const double depth = depthBelow(e_sc, v);
            const double p =
                std::min(1.0, 0.25 * (1.0 + 0.8 * depth));
            if (fault_rng.bernoulli(p)) {
                result.systemCrashed = true;
                break;
            }
        }
        // Application crash: control-flow corruption. Capped well
        // below certainty so the system-crash path still dominates
        // at depth.
        if (static_cast<double>(v) <= e_ac) {
            const double depth = depthBelow(e_ac, v);
            const double p =
                std::min(0.45, 0.08 * (1.0 + 0.6 * depth));
            if (fault_rng.bernoulli(p)) {
                result.applicationCrashed = true;
                result.exitCode = 139; // SIGSEGV-style death
                break;
            }
        }
    }

    if (result.systemCrashed) {
        // A hung machine takes the run's observability with it: the
        // output never materializes and the kernel-side EDAC state
        // is lost across the power cycle, so the watchdog's log
        // records nothing but the crash itself (the paper's Figure 5
        // shows exactly 16.0 at deep undervolt for this reason).
        result.sdcEvents = 0;
        result.correctedErrors = 0;
        result.uncorrectedErrors = 0;
        result.errors.clear();
    }

    result.completed =
        !result.systemCrashed && !result.applicationCrashed;
    // A run that completed with datapath corruption produces wrong
    // output (checksum mismatch vs the golden run).
    result.outputMatches = result.completed && result.sdcEvents == 0;

    result.avgIpc = total_cycles
                        ? static_cast<double>(total_instr) /
                              static_cast<double>(total_cycles)
                        : 0.0;
    result.simulatedSeconds =
        static_cast<double>(total_cycles) /
        (static_cast<double>(config.frequency) * 1e6);
    const double issue_util =
        result.avgIpc / static_cast<double>(params_.issueWidth);
    result.activityFactor = std::clamp(
        0.30 + 0.55 * issue_util + 0.15 * workload.memAccessFrac(),
        0.0, 1.0);
    result.counters = pmu_.snapshot();
    return result;
}

void
Core::updatePmu(const wl::EpochActivity &act,
                const wl::WorkloadProfile &workload,
                uint64_t l1d_misses, uint64_t l1d_writebacks,
                uint64_t l2_misses, uint64_t l2_writebacks,
                uint64_t l3_misses, uint64_t l1i_misses,
                uint64_t l2i_misses)
{
    using E = PmuEvent;
    // Derived counters land in a local flat array and fold into the
    // PMU in one accumulate pass — one bounds check per epoch
    // instead of one per event.
    PmuSnapshot acc{};
    auto add = [&acc](E e, uint64_t n) {
        acc[static_cast<size_t>(e)] += n;
    };
    auto frac = [](uint64_t n, double f) {
        return util::scaleCount(n, f);
    };

    const uint64_t mem = act.loads + act.stores;

    // ---- retirement / speculation -------------------------------
    add(E::INST_RETIRED, act.instructions);
    add(E::INST_SPEC, frac(act.instructions, 1.15));
    add(E::CPU_CYCLES, act.cycles);
    add(E::LD_RETIRED, act.loads);
    add(E::ST_RETIRED, act.stores);
    add(E::LD_SPEC, frac(act.loads, 1.12));
    add(E::ST_SPEC, frac(act.stores, 1.06));
    add(E::LDST_SPEC, frac(mem, 1.10));
    add(E::DP_SPEC, frac(act.aluOps, 1.10));
    add(E::VFP_SPEC, frac(act.fpuOps, 1.08));
    add(E::ASE_SPEC, frac(act.fpuOps, 0.30));
    add(E::MEM_ACCESS, mem);
    add(E::MEM_ACCESS_RD, act.loads);
    add(E::MEM_ACCESS_WR, act.stores);

    // ---- branches -----------------------------------------------
    add(E::BR_RETIRED, act.branches);
    add(E::BR_PRED, act.branches - act.branchMispredicts);
    add(E::BR_MIS_PRED, act.branchMispredicts);
    add(E::BR_MIS_PRED_RETIRED, frac(act.branchMispredicts, 0.92));
    add(E::BTB_MIS_PRED, act.btbMisses);
    add(E::BR_COND_INDIRECT, frac(act.branches, 0.90));
    add(E::BR_IMMED_RETIRED, frac(act.branches, 0.78));
    add(E::BR_RETURN_RETIRED, frac(act.branches, 0.08));
    add(E::BR_IMMED_SPEC, frac(act.branches, 0.86));
    add(E::BR_RETURN_SPEC, frac(act.branches, 0.09));
    add(E::BR_INDIRECT_SPEC, frac(act.branches, 0.12));
    add(E::PC_WRITE_RETIRED, act.branches);
    add(E::PC_WRITE_SPEC, frac(act.branches, 1.10));

    // ---- stalls -------------------------------------------------
    add(E::DISPATCH_STALL_CYCLES, act.dispatchStallCycles);
    add(E::STALL_FRONTEND, frac(act.dispatchStallCycles, 0.35));
    add(E::STALL_BACKEND, frac(act.dispatchStallCycles, 0.65));

    // ---- exceptions / system ------------------------------------
    add(E::EXC_TAKEN, act.exceptions);
    add(E::EXC_RETURN, act.exceptions);
    add(E::EXC_SVC, frac(act.exceptions, 0.60));
    add(E::EXC_IRQ, frac(act.exceptions, 0.28));
    add(E::EXC_DABORT, frac(act.exceptions, 0.05));
    add(E::EXC_PABORT, frac(act.exceptions, 0.02));
    add(E::EXC_UNDEF, frac(act.exceptions, 0.01));
    add(E::EXC_FIQ, frac(act.exceptions, 0.02));
    add(E::CID_WRITE_RETIRED, act.exceptions / 50);
    add(E::TTBR_WRITE_RETIRED, act.exceptions / 80);
    add(E::SW_INCR, 0);
    add(E::CRYPTO_SPEC, 0);
    add(E::ISB_SPEC, frac(act.exceptions, 2.0));
    add(E::DSB_SPEC, frac(mem, 0.0004));
    add(E::DMB_SPEC, frac(mem, 0.0008));
    add(E::LDREX_SPEC, frac(mem, 0.0002));
    add(E::STREX_PASS_SPEC, frac(mem, 0.00019));
    add(E::STREX_FAIL_SPEC, frac(mem, 0.00001));

    // ---- unaligned ----------------------------------------------
    add(E::UNALIGNED_LDST_RETIRED, act.unalignedAccesses);
    add(E::UNALIGNED_LD_SPEC, frac(act.unalignedAccesses, 0.7));
    add(E::UNALIGNED_ST_SPEC, frac(act.unalignedAccesses, 0.3));
    add(E::UNALIGNED_LDST_SPEC, act.unalignedAccesses);

    // ---- data-side cache hierarchy ------------------------------
    const uint64_t store_share = frac(mem, workload.mix.store /
                                               std::max(1e-9,
                                                        workload
                                                            .memAccessFrac()));
    add(E::L1D_CACHE, mem);
    add(E::L1D_CACHE_RD, act.loads);
    add(E::L1D_CACHE_WR, act.stores);
    add(E::L1D_CACHE_REFILL, l1d_misses);
    add(E::L1D_CACHE_REFILL_RD,
        frac(l1d_misses, mem ? static_cast<double>(act.loads) /
                                   static_cast<double>(mem)
                             : 0.0));
    add(E::L1D_CACHE_REFILL_WR,
        frac(l1d_misses, mem ? static_cast<double>(store_share) /
                                   static_cast<double>(mem)
                             : 0.0));
    add(E::L1D_CACHE_ALLOCATE, l1d_misses);
    add(E::L1D_CACHE_WB, l1d_writebacks);
    add(E::L1D_CACHE_WB_VICTIM, l1d_writebacks);
    add(E::L1D_CACHE_WB_CLEAN, frac(l1d_misses, 0.05));
    add(E::L1D_CACHE_INVAL, 0);

    const uint64_t l2_traffic = l1d_misses + l1d_writebacks;
    add(E::L2D_CACHE, l2_traffic);
    add(E::L2D_CACHE_RD, l1d_misses);
    add(E::L2D_CACHE_WR, l1d_writebacks);
    add(E::L2D_CACHE_REFILL, l2_misses);
    add(E::L2D_CACHE_REFILL_RD, frac(l2_misses, 0.8));
    add(E::L2D_CACHE_REFILL_WR, frac(l2_misses, 0.2));
    add(E::L2D_CACHE_ALLOCATE, l2_misses);
    add(E::L2D_CACHE_WB, l2_writebacks);
    add(E::L2D_CACHE_WB_VICTIM, l2_writebacks);
    add(E::L2D_CACHE_WB_CLEAN, frac(l2_misses, 0.04));
    add(E::L2D_CACHE_INVAL, 0);

    add(E::L3D_CACHE, l2_misses + l2_writebacks);
    add(E::L3D_CACHE_REFILL, l3_misses);
    add(E::L3D_CACHE_ALLOCATE, l3_misses);
    add(E::L3D_CACHE_WB, frac(l3_misses, 0.4));
    add(E::LL_CACHE_RD, frac(l2_misses, 0.8));
    add(E::LL_CACHE_MISS_RD, frac(l3_misses, 0.8));

    // ---- instruction side ---------------------------------------
    add(E::L1I_CACHE, act.instructions / 4); // fetch groups
    add(E::L1I_CACHE_REFILL, l1i_misses);
    add(E::L2I_CACHE, l1i_misses);
    add(E::L2I_CACHE_REFILL, l2i_misses);

    // ---- TLBs ---------------------------------------------------
    add(E::L1D_TLB, mem);
    add(E::L1D_TLB_REFILL, act.tlbRefills);
    add(E::L1D_TLB_REFILL_RD, frac(act.tlbRefills, 0.7));
    add(E::L1D_TLB_REFILL_WR, frac(act.tlbRefills, 0.3));
    add(E::L1I_TLB, act.instructions / 4);
    add(E::L1I_TLB_REFILL, frac(act.tlbRefills, 0.08));
    add(E::L2D_TLB, act.tlbRefills);
    add(E::L2D_TLB_REFILL, act.pageWalks);
    add(E::L2I_TLB, frac(act.tlbRefills, 0.08));
    add(E::L2I_TLB_REFILL, frac(act.pageWalks, 0.05));
    add(E::DTLB_WALK, act.pageWalks);
    add(E::ITLB_WALK, frac(act.pageWalks, 0.05));

    // ---- bus / system -------------------------------------------
    const uint64_t bus = l3_misses + frac(l3_misses, 0.4);
    add(E::BUS_ACCESS, bus);
    add(E::BUS_ACCESS_RD, l3_misses);
    add(E::BUS_ACCESS_WR, frac(l3_misses, 0.4));
    add(E::BUS_CYCLES, act.cycles / 2);

    pmu_.accumulate(acc);
}

} // namespace vmargin::sim
