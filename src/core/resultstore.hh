/**
 * @file
 * Persistence for characterization results.
 *
 * The paper's framework stores raw logs and final CSVs so the
 * parsing/analysis phases can run long after the (six-month!)
 * measurement campaigns. This module round-trips a full
 * CharacterizationReport through the on-disk CSV format: the
 * exported file carries a metadata header line plus the per-run
 * rows, and loading rebuilds every cell's region analysis from the
 * rows alone — so downstream analyses (prediction, trade-offs,
 * scheduling) can run against archived measurements.
 */

#ifndef VMARGIN_CORE_RESULTSTORE_HH
#define VMARGIN_CORE_RESULTSTORE_HH

#include <optional>
#include <string>
#include <vector>

#include "framework.hh"
#include "ledger.hh"

namespace vmargin
{

/**
 * Serialize a report: "# vmargin-report ..." metadata line followed
 * by the classified-run CSV.
 */
std::string serializeReport(const CharacterizationReport &report);

/** Append serializeReport's bytes to @p out. */
void appendReport(std::string &out, const CharacterizationReport &report);

/**
 * Append the classified-run CSV — the header of run columns, then
 * one row per run — to @p out. This emitter and deserializeReport
 * share the one spelling of the run columns.
 */
void appendRunCsv(std::string &out,
                  const std::vector<ClassifiedRun> &runs);

/** A generous estimate of one run row's bytes; serializeReport and
 *  FleetReport::serialize reserve their buffer from it. */
inline constexpr size_t kReportBytesPerRun = 96;

/**
 * Rebuild a report from serializeReport() output. Region analyses
 * and severity tables are recomputed from the run rows with the
 * given weights. A malformed document — no metadata header, a
 * missing column, a row whose field count differs from the header,
 * a non-numeric or out-of-range number — is fatal, naming the value
 * and, for run rows, the column and the 1-based row.
 */
CharacterizationReport
deserializeReport(const std::string &text,
                  const SeverityWeights &weights = {});

/** serializeReport straight to a file; fatal when unwritable. */
void saveReport(const CharacterizationReport &report,
                const std::string &path);

/** deserializeReport from a file; fatal when unreadable. */
CharacterizationReport
loadReport(const std::string &path,
           const SeverityWeights &weights = {});

/** The data-model identity of @p platform's chip. */
inline ChipRef
chipRefOf(const sim::Platform &platform)
{
    return ChipRef{platform.chip().corner(),
                   platform.chip().serial()};
}

/**
 * Header line binding a journal to one experiment: chip identity,
 * frequency, and a hash of every configuration knob that shapes the
 * measurements (including the platform's fault plan, if any).
 * Resuming with a different configuration is refused.
 */
std::string journalHeaderFor(const FrameworkConfig &config,
                             const sim::Platform &platform);

/**
 * The three ingredients of a measurement-shaping hash, split so the
 * fleet plane can compose them per chip: the sweep knobs (voltage
 * range, runs, campaigns, epochs, fan target, retry policy), one
 * chip's identity, and the platform's fault-plan configuration.
 * journalHeaderFor()/cellConfigHash() mix them in exactly this
 * order, so the single-chip hashes are unchanged by the split.
 */
Seed mixSweepKnobs(Seed hash, const FrameworkConfig &config);
Seed mixChipIdentity(Seed hash, const ChipRef &chip);
Seed mixFaultPlan(Seed hash, const sim::Platform &platform);

/**
 * Hash of every configuration knob that shapes a *single cell's*
 * measurement (voltage range, runs, campaigns, epochs, fan target,
 * retry policy, chip identity, fault plan) — deliberately excluding
 * the workload and core lists, which are per-cell coordinates. The
 * cell-result cache keys entries on this hash plus the (workload,
 * core) coordinates, so sweeps over different workload/core subsets
 * share cached cells while any knob that would change the measured
 * bytes invalidates them.
 */
Seed cellConfigHash(const FrameworkConfig &config,
                    const sim::Platform &platform);

/**
 * Write-ahead journal of completed (workload, core) cells.
 *
 * The paper's campaigns ran for six months; ours must likewise
 * survive being killed mid-sweep. A thin view over a RunLedger: the
 * binding header (journalHeaderFor) ties one file to one exact
 * experiment, every finished cell is appended as run records plus a
 * commit frame and flushed immediately, and on open the committed
 * cells are loaded while a truncated tail — the cell a killed
 * process was writing — is discarded, so the framework re-runs
 * exactly the unfinished cells.
 *
 * The parallel campaign executor appends from its worker threads in
 * completion order, so append() is mutex-guarded (inside the
 * ledger) and the on-disk cell order is *not* canonical: resume
 * merges entries regardless of order (first occurrence of a cell
 * wins, duplicates from racing sessions are dropped) and the
 * framework re-establishes canonical order when it assembles the
 * report.
 */
class CampaignJournal
{
  public:
    /** @param options group-commit policy (default: flush every
     *  appended cell, the historical write-ahead contract). */
    explicit CampaignJournal(std::string path,
                             LedgerWriteOptions options = {});

    /**
     * Bind to @p header: a fresh file gets it written, an existing
     * file must carry it (fatal otherwise — the journal belongs to
     * a different experiment), and its completed entries are
     * loaded. @p implicit_chip is the chip a legacy (version-1,
     * pre-chip-dimension) file's cells are mapped onto — the
     * single-chip executor passes its platform's chip, so old
     * journals resume seamlessly; fleet journals are written at the
     * current version and ignore it. Not thread-safe; open before
     * workers start.
     */
    void open(const std::string &header,
              ChipRef implicit_chip = {});

    /** Measurement open() replayed for the cell on @p chip, or
     *  nullptr (cells appended since open() are not kept). The
     *  pointer stays valid across append(). */
    const CellMeasurement *find(const ChipRef &chip,
                                const std::string &workload_id,
                                CoreId core) const;

    /** Move the replayed cell out of the journal, once; see
     *  RunLedger::take(). */
    std::optional<CellMeasurement> take(const ChipRef &chip,
                                        const std::string &workload_id,
                                        CoreId core);

    /**
     * Append a finished cell; the group-commit policy decides when
     * the bytes are flushed (the default flushes per cell). Safe to
     * call concurrently from executor workers; entries land in
     * completion order.
     */
    void append(const CellMeasurement &cell);

    /** Drain any batched appends to the OS (durability barrier). */
    void flush();

    /** Number of completed cells on record. */
    size_t size() const;

    /** Replayed cells in on-disk (completion) order; append()
     *  leaves them be. */
    const std::vector<RunLedger::Entry> &entries() const
    {
        return ledger_.entries();
    }

    const std::string &path() const { return ledger_.path(); }

  private:
    RunLedger ledger_;
};

/**
 * Write-ahead journal of a supervised daemon session's rounds.
 *
 * The same ledger framing as CampaignJournal, applied to the
 * daemon's unit of work: every served round is appended as a round
 * frame plus the supervisor checkpoint that commits it, flushed as
 * one unit. A killed (or watchdog-power-cycled) daemon reopens the
 * journal, replays the committed rounds verbatim into its result,
 * restores the last checkpoint's safety posture, and continues from
 * the first unserved round — reproducing the uninterrupted session's
 * report byte for byte. The binding header (built by the daemon from
 * everything that shapes a round) refuses resumption under a
 * different experiment.
 */
class DaemonJournal
{
  public:
    /** @param options group-commit policy; the daemon keeps the
     *  default (checkpoint flushed per round) so a watchdog power
     *  cycle never loses a served round. */
    explicit DaemonJournal(std::string path,
                           LedgerWriteOptions options = {});

    /** Bind to @p header and load the committed rounds. Fatal when
     *  the file was recorded for a different daemon session. */
    void open(const std::string &header);

    /** Committed rounds in round order; invalidated by append(). */
    const std::vector<RunLedger::DaemonRoundEntry> &rounds() const
    {
        return ledger_.daemonRounds();
    }

    /** Append one round plus its checkpoint as one commit unit. */
    void append(const DaemonRoundRecord &round,
                const SupervisorCheckpoint &state);

    /** Drain any batched appends to the OS (durability barrier). */
    void flush();

    const std::string &path() const { return ledger_.path(); }

  private:
    RunLedger ledger_;
};

} // namespace vmargin

#endif // VMARGIN_CORE_RESULTSTORE_HH
