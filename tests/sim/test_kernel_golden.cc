/**
 * @file
 * Draw-order golden tests for the per-run simulation kernel.
 *
 * The batched kernel refactor (scratch-buffer RNG draws, batch cache
 * walks) is only legal because every RNG stream keeps its exact draw
 * sequence. These tests pin that contract to literal hashes computed
 * on the pre-batching kernel: any accidental reorder of
 * `fault_rng`/`AddressStream` draws — or any change to the xoshiro
 * streams themselves — fails loudly here instead of silently shifting
 * every failure threshold in the characterization results.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "sim/cache_hierarchy.hh"
#include "sim/core.hh"
#include "util/rng.hh"
#include "workloads/spec.hh"

namespace vmargin::sim
{
namespace
{

/** FNV-1a over arbitrary words; chained across calls. */
uint64_t
fnv(uint64_t hash, uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (byte * 8)) & 0xFF;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

uint64_t
fnvDouble(uint64_t hash, double value)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return fnv(hash, bits);
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** Hash every observable field of a run result. */
uint64_t
hashRun(uint64_t hash, const RunResult &r)
{
    hash = fnv(hash, r.systemCrashed);
    hash = fnv(hash, r.applicationCrashed);
    hash = fnv(hash, r.completed);
    hash = fnv(hash, r.outputMatches);
    hash = fnv(hash, static_cast<uint64_t>(r.exitCode));
    hash = fnv(hash, r.sdcEvents);
    hash = fnv(hash, r.correctedErrors);
    hash = fnv(hash, r.uncorrectedErrors);
    hash = fnv(hash, r.epochsExecuted);
    hash = fnvDouble(hash, r.simulatedSeconds);
    hash = fnvDouble(hash, r.avgIpc);
    hash = fnvDouble(hash, r.activityFactor);
    for (const uint64_t counter : r.counters)
        hash = fnv(hash, counter);
    for (const auto &e : r.errors) {
        hash = fnv(hash, static_cast<uint64_t>(e.kind));
        hash = fnv(hash, static_cast<uint64_t>(e.site));
        hash = fnv(hash, e.core);
        hash = fnv(hash, e.epoch);
        hash = fnv(hash, e.count);
    }
    return hash;
}

/** Onsets that put every fault regime inside the golden grids. */
OnsetSet
goldenOnsets()
{
    OnsetSet onsets;
    onsets.sdc = 900;
    onsets.ce = 905;
    onsets.ue = 885;
    onsets.ac = 880;
    onsets.sc = 870;
    return onsets;
}

/** The kernel's exact per-run streams, reproduced from their seeds. */
TEST(KernelGolden, FaultRngAndAddressStreamSequences)
{
    const Seed seed = 0x5EEDULL;

    util::Rng fault_rng(util::mixSeed(seed, 0xFA17ULL));
    uint64_t hash = kFnvBasis;
    for (int i = 0; i < 256; ++i)
        hash = fnv(hash, fault_rng.next());

    util::Rng addr_seed_rng(util::mixSeed(seed, 0xADD2ULL));
    wl::AddressStream data_stream(1 << 20, 0.7, 0.5,
                                  addr_seed_rng.next());
    wl::AddressStream instr_stream(1 << 16, 0.95, 0.6,
                                   addr_seed_rng.next());
    for (int i = 0; i < 256; ++i)
        hash = fnv(hash, data_stream.next());
    for (int i = 0; i < 256; ++i)
        hash = fnv(hash, instr_stream.next());

    EXPECT_EQ(hash, 0x30ef81558a845dcaULL)
        << "raw RNG/address stream sequences changed";
}

/**
 * A representative run per effect regime, hashed end to end: every
 * counter, error record and observable. Reordering any draw inside
 * Core::run (the batching refactor's one forbidden failure mode)
 * changes this hash.
 */
TEST(KernelGolden, RunResultAcrossVoltageGrid)
{
    XGene2Params params;
    CacheHierarchy caches(params);
    Core core(0, params, &caches);

    const OnsetSet onsets = goldenOnsets();

    uint64_t hash = kFnvBasis;
    // Above every onset; straddling CE/SDC; inside UE/AC; deep in
    // the crash region — all four fault regimes contribute.
    for (const MilliVolt v : {980, 910, 890, 875, 860}) {
        ExecutionConfig config;
        config.voltage = v;
        config.seed = util::mixSeed(0xC0FFEEULL,
                                    static_cast<uint64_t>(v));
        config.maxEpochs = 12;
        caches.invalidateAll();
        const RunResult r =
            core.run(wl::findWorkload("bwaves/ref"), onsets, config);
        hash = hashRun(hash, r);
    }
    // di/dt droop exercises the epoch-swing path too.
    {
        ExecutionConfig config;
        config.voltage = 895;
        config.seed = 0xD1D7ULL;
        config.maxEpochs = 12;
        config.droopSensitivityMv = 25.0;
        caches.invalidateAll();
        const RunResult r =
            core.run(wl::findWorkload("mcf/ref"), onsets, config);
        hash = hashRun(hash, r);
    }

    EXPECT_EQ(hash, 0x80175df6fa2a45b3ULL)
        << "kernel draw order or outcome semantics changed";
}

/**
 * The fixed grid bench/run_kernel times (40 reps x 2 workloads x 5
 * voltages), hashed as that bench hashes it, so its result hash is
 * pinned here rather than by whoever runs the bench.
 */
TEST(KernelGolden, RunKernelGridHash)
{
    XGene2Params params;
    CacheHierarchy caches(params);
    Core core(0, params, &caches);

    const OnsetSet onsets = goldenOnsets();

    uint64_t hash = kFnvBasis;
    for (uint64_t rep = 0; rep < 40; ++rep) {
        for (const char *name : {"bwaves/ref", "mcf/ref"}) {
            for (const MilliVolt v : {980, 910, 890, 875, 860}) {
                ExecutionConfig config;
                config.voltage = v;
                config.seed = util::mixSeed(
                    0xBE7C4ULL + rep, static_cast<uint64_t>(v));
                config.maxEpochs = 20;
                caches.invalidateAll();
                hash = hashRun(hash, core.run(wl::findWorkload(name),
                                              onsets, config));
            }
        }
    }

    EXPECT_EQ(hash, 0xb5e50ea7a36483f7ULL)
        << "run_kernel grid outcome changed";
}

} // namespace
} // namespace vmargin::sim
