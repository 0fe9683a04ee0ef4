/**
 * @file
 * Execution-phase log emission and parsing-phase classification
 * (paper Figure 2, right half).
 *
 * The real framework stores per-run log files while the machine is
 * back at nominal voltage, then a parser turns them into classified
 * CSV rows. We keep that structure: the campaign emits a small
 * text log per run (formatRunLog) and the parsing phase consumes
 * only that text (parseRunLog) — the classifier never peeks at the
 * simulator's internal state, so the pipeline is as honest as the
 * original.
 */

#ifndef VMARGIN_CORE_CLASSIFIER_HH
#define VMARGIN_CORE_CLASSIFIER_HH

#include <string>
#include <vector>

#include "effects.hh"
#include "sim/core.hh"
#include "util/types.hh"

namespace vmargin
{

/** Identity of one characterization run. */
struct RunKey
{
    std::string workloadId; ///< "name/dataset"
    CoreId core = 0;
    MilliVolt voltage = 980;
    MegaHertz frequency = 2400;
    uint32_t campaign = 0; ///< campaign repetition index
    uint32_t runIndex = 0; ///< run within (campaign, voltage)

    bool operator==(const RunKey &other) const = default;
};

/** One run after the parsing phase. */
struct ClassifiedRun
{
    RunKey key;
    EffectSet effects;
    uint64_t sdcEvents = 0;
    uint64_t correctedErrors = 0;
    uint64_t uncorrectedErrors = 0;
    int exitCode = 0;
    double seconds = 0.0;
    double avgIpc = 0.0;
    double activityFactor = 0.0;

    /** Corrected-error counts by detection site — the location
     *  detail of section 2.2's extended parser. */
    sim::SiteCounts correctedBySite;

    /** Uncorrected-error counts by detection site. */
    sim::SiteCounts uncorrectedBySite;

    bool operator==(const ClassifiedRun &other) const = default;
};

/**
 * One run's identity plus everything the simulator observed — the
 * zero-copy record the campaign stores in place of pre-rendered log
 * text. The legacy text log is derived from these on demand
 * (formatRunLog), never on the hot path.
 */
struct RunLogRecord
{
    RunKey key;
    sim::RunResult run;
};

/** Render the log lines the execution phase stores for one run. */
std::vector<std::string> formatRunLog(const RunKey &key,
                                      const sim::RunResult &run);

/**
 * Parse one run's log lines back into a classified record. Panics
 * on malformed logs (they are produced by formatRunLog; corruption
 * means a framework bug).
 */
ClassifiedRun parseRunLog(const std::vector<std::string> &lines);

/**
 * Split a whole campaign log (concatenated run logs) into runs and
 * classify each. Run boundaries are the "RUN " header lines.
 */
std::vector<ClassifiedRun>
parseCampaignLog(const std::vector<std::string> &lines);

/**
 * Classify a run directly from the simulator's result, bypassing the
 * format-then-reparse round trip of the text-log pipeline. The
 * contract — enforced by tests/core/test_classifier's equivalence
 * suite — is exact equality with
 * `parseRunLog(formatRunLog(key, run))` for every effect class,
 * including the precision-limited doubles of the TIME line (they are
 * quantized through the same fixed-precision rendering the log
 * format uses).
 */
ClassifiedRun classifyRunRecord(const RunKey &key,
                                const sim::RunResult &run);

/** Render the legacy text log of a whole record stream (the lazy
 *  raw-log view: formatRunLog over every record, concatenated). */
std::vector<std::string>
formatCampaignLog(const std::vector<RunLogRecord> &records);

} // namespace vmargin

#endif // VMARGIN_CORE_CLASSIFIER_HH
