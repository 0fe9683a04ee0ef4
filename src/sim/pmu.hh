/**
 * @file
 * Performance Monitoring Unit: the 101 events the X-Gene 2 exposes
 * (paper section 4.1) covering individual cores, the memory
 * hierarchy, the pipeline and the system. The list follows the
 * ARMv8 PMUv3 architectural event set plus implementation-defined
 * events; the five the paper's RFE selects are DISPATCH_STALL_CYCLES,
 * EXC_TAKEN, MEM_ACCESS_RD, BTB_MIS_PRED and BR_COND_INDIRECT.
 */

#ifndef VMARGIN_SIM_PMU_HH
#define VMARGIN_SIM_PMU_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace vmargin::sim
{

/**
 * X-macro list of every PMU event. Kept as a macro so the enum, the
 * name table and the count can never drift apart.
 */
// clang-format off
#define VMARGIN_PMU_EVENTS(X) \
    X(SW_INCR)                 X(L1I_CACHE_REFILL)      \
    X(L1I_TLB_REFILL)          X(L1D_CACHE_REFILL)      \
    X(L1D_CACHE)               X(L1D_TLB_REFILL)        \
    X(LD_RETIRED)              X(ST_RETIRED)            \
    X(INST_RETIRED)            X(EXC_TAKEN)             \
    X(EXC_RETURN)              X(CID_WRITE_RETIRED)     \
    X(PC_WRITE_RETIRED)        X(BR_IMMED_RETIRED)      \
    X(BR_RETURN_RETIRED)       X(UNALIGNED_LDST_RETIRED)\
    X(BR_MIS_PRED)             X(CPU_CYCLES)            \
    X(BR_PRED)                 X(MEM_ACCESS)            \
    X(L1I_CACHE)               X(L1D_CACHE_WB)          \
    X(L2D_CACHE)               X(L2D_CACHE_REFILL)      \
    X(L2D_CACHE_WB)            X(BUS_ACCESS)            \
    X(MEMORY_ERROR)            X(INST_SPEC)             \
    X(TTBR_WRITE_RETIRED)      X(BUS_CYCLES)            \
    X(L1D_CACHE_ALLOCATE)      X(L2D_CACHE_ALLOCATE)    \
    X(BR_RETIRED)              X(BR_MIS_PRED_RETIRED)   \
    X(STALL_FRONTEND)          X(STALL_BACKEND)         \
    X(L1D_TLB)                 X(L1I_TLB)               \
    X(L2I_CACHE)               X(L2I_CACHE_REFILL)      \
    X(L3D_CACHE_ALLOCATE)      X(L3D_CACHE_REFILL)      \
    X(L3D_CACHE)               X(L3D_CACHE_WB)          \
    X(L2D_TLB_REFILL)          X(L2I_TLB_REFILL)        \
    X(L2D_TLB)                 X(L2I_TLB)               \
    X(DTLB_WALK)               X(ITLB_WALK)             \
    X(LL_CACHE_RD)             X(LL_CACHE_MISS_RD)      \
    X(L1D_CACHE_RD)            X(L1D_CACHE_WR)          \
    X(L1D_CACHE_REFILL_RD)     X(L1D_CACHE_REFILL_WR)   \
    X(L1D_CACHE_WB_VICTIM)     X(L1D_CACHE_WB_CLEAN)    \
    X(L1D_CACHE_INVAL)         X(L1D_TLB_REFILL_RD)     \
    X(L1D_TLB_REFILL_WR)       X(L2D_CACHE_RD)          \
    X(L2D_CACHE_WR)            X(L2D_CACHE_REFILL_RD)   \
    X(L2D_CACHE_REFILL_WR)     X(L2D_CACHE_WB_VICTIM)   \
    X(L2D_CACHE_WB_CLEAN)      X(L2D_CACHE_INVAL)       \
    X(BUS_ACCESS_RD)           X(BUS_ACCESS_WR)         \
    X(MEM_ACCESS_RD)           X(MEM_ACCESS_WR)         \
    X(UNALIGNED_LD_SPEC)       X(UNALIGNED_ST_SPEC)     \
    X(UNALIGNED_LDST_SPEC)     X(LDREX_SPEC)            \
    X(STREX_PASS_SPEC)         X(STREX_FAIL_SPEC)       \
    X(LD_SPEC)                 X(ST_SPEC)               \
    X(LDST_SPEC)               X(DP_SPEC)               \
    X(ASE_SPEC)                X(VFP_SPEC)              \
    X(PC_WRITE_SPEC)           X(CRYPTO_SPEC)           \
    X(BR_IMMED_SPEC)           X(BR_RETURN_SPEC)        \
    X(BR_INDIRECT_SPEC)        X(ISB_SPEC)              \
    X(DSB_SPEC)                X(DMB_SPEC)              \
    X(EXC_UNDEF)               X(EXC_SVC)               \
    X(EXC_PABORT)              X(EXC_DABORT)            \
    X(EXC_IRQ)                 X(EXC_FIQ)               \
    X(DISPATCH_STALL_CYCLES)   X(BTB_MIS_PRED)          \
    X(BR_COND_INDIRECT)
// clang-format on

/** PMU event identifiers. */
enum class PmuEvent : uint16_t
{
#define VMARGIN_PMU_ENUM(name) name,
    VMARGIN_PMU_EVENTS(VMARGIN_PMU_ENUM)
#undef VMARGIN_PMU_ENUM
};

/** Number of events (the paper's "101 performance counters"). */
constexpr size_t kNumPmuEvents = []() {
    size_t n = 0;
#define VMARGIN_PMU_COUNT(name) ++n;
    VMARGIN_PMU_EVENTS(VMARGIN_PMU_COUNT)
#undef VMARGIN_PMU_COUNT
    return n;
}();

/** Counter values captured at the end of a run. */
using PmuSnapshot = std::array<uint64_t, kNumPmuEvents>;

/** Per-core event counter bank. */
class Pmu
{
  public:
    Pmu() { reset(); }

    /** Add @p count occurrences of @p event. */
    void add(PmuEvent event, uint64_t count);

    /**
     * Fold a whole snapshot of per-event deltas in, one flat pass
     * over the counter array. The hot per-epoch PMU update builds
     * its ~90 derived counters in a local flat array and lands them
     * here in a single call instead of ~90 bounds-checked add()s.
     */
    void accumulate(const PmuSnapshot &delta)
    {
        for (size_t i = 0; i < kNumPmuEvents; ++i)
            counters_[i] += delta[i];
    }

    /** Current value of @p event. */
    uint64_t value(PmuEvent event) const;

    /** Zero every counter. */
    void reset();

    /** Copy of all counters. */
    PmuSnapshot snapshot() const { return counters_; }

    /** All event names, in event order. */
    static std::vector<std::string> eventNames();

  private:
    PmuSnapshot counters_;
};

} // namespace vmargin::sim

#endif // VMARGIN_SIM_PMU_HH
