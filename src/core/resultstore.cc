#include "resultstore.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <concepts>
#include <fstream>
#include <iterator>
#include <sstream>
#include <type_traits>
#include <utility>

#include "util/cli.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace vmargin
{

namespace
{

constexpr const char *kMagic = "# vmargin-report";

/** The report's run columns, in emission order. */
enum RunColumn : size_t
{
    kWorkload, kCore, kVoltage, kFrequency, kCampaign, kRun,
    kEffects, kSdcEvents, kCe, kUe, kExitCode, kSeconds, kIpc,
    kActivity, kCeSites, kUeSites, kNumRunColumns
};

/** The one spelling of each run column's name. */
constexpr std::array<const char *, kNumRunColumns> kRunColumnNames = {
    "workload", "core",     "voltage_mv", "freq_mhz",
    "campaign", "run",      "effects",    "sdc_events",
    "ce",       "ue",       "exit_code",  "seconds",
    "ipc",      "activity", "ce_sites",   "ue_sites"};

/** The metadata line's counters after freq=, in emission order,
 *  each with the field it carries. */
template <typename Report>
auto
metadataCounters(Report &report)
{
    auto &telemetry = report.telemetry;
    return std::array{
        std::pair{"watchdog", &report.watchdogInterventions},
        std::pair{"retries", &telemetry.retries},
        std::pair{"backoff_events", &telemetry.backoffEvents},
        std::pair{"backoff_us", &telemetry.backoffUsTotal},
        std::pair{"watchdog_retries", &telemetry.watchdogRetries},
        std::pair{"lost", &telemetry.lostMeasurements},
        std::pair{"fallback_rounds", &telemetry.fallbackRounds},
    };
}

/**
 * Parse a numeric report field into T. Fatal — naming where() and
 * the value — when it is not a number or does not fit T. Plain
 * fields take the from_chars fast path; anything else goes through
 * util::parseLong/parseDouble, so it is accepted or refused exactly
 * as any other numeric input, and where() is only built then.
 */
template <typename T, typename Where>
T
parseField(const std::string &text, const Where &where)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error == std::errc() && stop == end)
        return value;
    if constexpr (std::is_floating_point_v<T>) {
        return util::parseDouble(text, where());
    } else {
        const long wide = util::parseLong(text, where());
        if (!std::in_range<T>(wide))
            util::fatalError(where() + ": '" + text +
                             "' is out of range");
        return static_cast<T>(wide);
    }
}

/** Widest decimal form of an integer of up to 64 bits, sign
 *  included (UINT64_MAX's 20 digits, INT64_MIN's 19 and a sign). */
constexpr size_t kIntegerChars = 21;

/**
 * The most bytes a run row takes besides its id and effects fields:
 * its nine integers and three doubles at their widest (a double at
 * DBL_MAX prints 309 integer digits), both site lists at their
 * widest, the 15 separators and the newline.
 */
constexpr size_t kRowBytesBeside =
    9 * kIntegerChars + util::fixedCharsBound(6) +
    2 * util::fixedCharsBound(4) + 2 * sim::kSiteCountsMaxChars +
    kNumRunColumns;

/** The effects field of every EffectSet, indexed by its bits():
 *  EffectSet::appendTo's text under the CSV quoting rule, so a set
 *  holding the separator prints quoted ("CE,UE" as "\"CE,UE\""). */
struct EffectFields
{
    std::array<std::string, kEffectSets> text;
    size_t widest = 0; ///< the longest entry's bytes
};

const EffectFields &
effectFields()
{
    static const EffectFields fields = [] {
        EffectFields built;
        for (size_t mask = 0; mask < kEffectSets; ++mask) {
            EffectSet set;
            for (size_t bit = 0; bit + 1 < std::size(kAllEffects); ++bit)
                if (mask >> bit & 1)
                    set.add(kAllEffects[bit + 1]);
            std::string text;
            set.appendTo(text);
            std::string &field = built.text[set.bits()];
            util::appendCsvField(field, text);
            built.widest = std::max(built.widest, field.size());
        }
        return built;
    }();
    return fields;
}

/** Copy @p text to @p out; returns one past the copy. */
char *
putText(char *out, std::string_view text)
{
    return std::copy(text.begin(), text.end(), out);
}

/** End a field at @p out with @p separator; returns one past it. */
char *
endField(char *out, char separator = ',')
{
    *out = separator;
    return out + 1;
}

/** Write @p value in decimal at @p out; returns one past it. */
template <std::integral T>
char *
putInteger(char *out, T value)
{
    static_assert(sizeof(T) <= 8, "kIntegerChars covers 64 bits");
    return std::to_chars(out, out + kIntegerChars, value).ptr;
}

} // namespace

void
appendRunCsv(std::string &out, const std::vector<ClassifiedRun> &runs)
{
    util::CsvWriter csv(out);
    for (const char *name : kRunColumnNames)
        csv.field(name);
    csv.endRow();

    const EffectFields &effects = effectFields();
    // Each row is written through a cursor into one buffer, then
    // appended whole. The buffer holds the row at its widest: the
    // quoted id (built once per run of equal ids), the widest
    // effects field and kRowBytesBeside. Rows whose id does not fit
    // the stack buffer take the heap one.
    char stack[4096];
    std::string heap;
    std::string id_field;
    const std::string *id = nullptr;
    char *row = stack;
    for (const ClassifiedRun &run : runs) {
        if (!id || run.key.workloadId != *id) {
            id = &run.key.workloadId;
            id_field.clear();
            util::appendCsvField(id_field, *id);
            const size_t bound =
                id_field.size() + effects.widest + kRowBytesBeside;
            row = stack;
            if (bound > sizeof(stack)) {
                heap.resize(std::max(heap.size(), bound));
                row = heap.data();
            }
        }
        // The columns in kRunColumnNames order.
        char *cursor = endField(putText(row, id_field));
        cursor = endField(putInteger(cursor, run.key.core));
        cursor = endField(putInteger(cursor, run.key.voltage));
        cursor = endField(putInteger(cursor, run.key.frequency));
        cursor = endField(putInteger(cursor, run.key.campaign));
        cursor = endField(putInteger(cursor, run.key.runIndex));
        cursor = endField(putText(cursor, effects.text[run.effects.bits()]));
        cursor = endField(putInteger(cursor, run.sdcEvents));
        cursor = endField(putInteger(cursor, run.correctedErrors));
        cursor = endField(putInteger(cursor, run.uncorrectedErrors));
        cursor = endField(putInteger(cursor, run.exitCode));
        cursor = endField(util::writeFixed(cursor, run.seconds, 6));
        cursor = endField(util::writeFixed(cursor, run.avgIpc, 4));
        cursor = endField(util::writeFixed(cursor, run.activityFactor, 4));
        cursor = endField(sim::writeSiteCounts(cursor, run.correctedBySite));
        cursor = endField(
            sim::writeSiteCounts(cursor, run.uncorrectedBySite), '\n');
        out.append(row, cursor);
    }
}

void
appendReport(std::string &out, const CharacterizationReport &report)
{
    out.append(kMagic)
        .append(" chip=")
        .append(report.chipName)
        .append(" corner=")
        .append(sim::cornerName(report.corner))
        .append(" freq=")
        .append(std::to_string(report.frequency));
    for (const auto &[name, counter] : metadataCounters(report))
        out.append(" ").append(name).append("=").append(
            std::to_string(*counter));
    out += '\n';
    appendRunCsv(out, report.allRuns);
}

std::string
serializeReport(const CharacterizationReport &report)
{
    std::string out;
    out.reserve(report.allRuns.size() * kReportBytesPerRun + 512);
    appendReport(out, report);
    return out;
}

CharacterizationReport
deserializeReport(const std::string &text,
                  const SeverityWeights &weights)
{
    const auto newline = text.find('\n');
    if (newline == std::string::npos ||
        !util::startsWith(text, kMagic))
        util::fatalError("deserializeReport: missing metadata header "
                         "(the first line must start with '" +
                         std::string(kMagic) + "')");

    CharacterizationReport report;
    // Parse the metadata header.
    const auto counters = metadataCounters(report);
    for (const auto &token :
         util::split(text.substr(0, newline), ' ')) {
        const auto eq = token.find('=');
        if (eq == std::string::npos)
            continue;
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        const auto where = [&] {
            return "deserializeReport: header key '" + key + "'";
        };
        if (key == "chip")
            report.chipName = value;
        else if (key == "corner")
            report.corner = sim::cornerFromName(value);
        else if (key == "freq")
            report.frequency = parseField<MegaHertz>(value, where);
        for (const auto &[name, counter] : counters)
            if (key == name)
                *counter = parseField<uint64_t>(value, where);
    }

    // Parse the run rows.
    const util::CsvDocument doc =
        util::parseCsv(text.substr(newline + 1));
    std::array<size_t, kNumRunColumns> col{};
    for (size_t c = 0; c < kNumRunColumns; ++c) {
        const int index = doc.columnIndex(kRunColumnNames[c]);
        if (index < 0)
            util::fatalError("deserializeReport: missing column '" +
                             std::string(kRunColumnNames[c]) + "'");
        col[c] = static_cast<size_t>(index);
    }

    // Every row lands in allRuns, which then streams into the
    // LedgerView once; it derives all per-cell analyses (regions,
    // severity, Vmin) without re-walking the rows per cell.
    LedgerView view(weights);
    report.allRuns.reserve(doc.rows.size());
    for (size_t r = 0; r < doc.rows.size(); ++r) {
        const auto &row = doc.rows[r];
        // Errors name the 1-based run row (1 = the first row after
        // the CSV header), the column and the value.
        const auto row_name = [&] {
            return "deserializeReport: run row " + std::to_string(r + 1);
        };
        if (row.size() != doc.header.size())
            util::fatalError(row_name() + " has " +
                             std::to_string(row.size()) +
                             " fields, the header has " +
                             std::to_string(doc.header.size()));
        const auto read = [&](auto &out, size_t col) {
            out = parseField<std::remove_reference_t<decltype(out)>>(
                row[col], [&] {
                    return row_name() + ", column '" + doc.header[col] +
                           "'";
                });
        };
        // The effects and site-count parsers return nullopt on a bad
        // value; the fatal error names it with its row and column.
        const auto decode = [&](auto parsed, size_t col,
                                const char *expected) {
            if (!parsed)
                util::fatalError(row_name() + ", column '" +
                                 doc.header[col] + "': '" + row[col] +
                                 "' is not " + expected);
            return *std::move(parsed);
        };
        ClassifiedRun run;
        run.key.workloadId = row[col[kWorkload]];
        read(run.key.core, col[kCore]);
        read(run.key.voltage, col[kVoltage]);
        read(run.key.frequency, col[kFrequency]);
        read(run.key.campaign, col[kCampaign]);
        read(run.key.runIndex, col[kRun]);
        run.effects = decode(EffectSet::fromString(row[col[kEffects]]),
                             col[kEffects], "a list of effect names");
        read(run.sdcEvents, col[kSdcEvents]);
        read(run.correctedErrors, col[kCe]);
        read(run.uncorrectedErrors, col[kUe]);
        read(run.exitCode, col[kExitCode]);
        read(run.seconds, col[kSeconds]);
        read(run.avgIpc, col[kIpc]);
        read(run.activityFactor, col[kActivity]);
        run.correctedBySite =
            decode(sim::decodeSiteCounts(row[col[kCeSites]]),
                   col[kCeSites], "a site:count list");
        run.uncorrectedBySite =
            decode(sim::decodeSiteCounts(row[col[kUeSites]]),
                   col[kUeSites], "a site:count list");
        report.allRuns.push_back(std::move(run));
    }
    view.addAll(report.allRuns);
    report.totalRuns = report.allRuns.size();
    // Cells come out in first-seen order — the view preserves the
    // stream order, which is the report's canonical cell order.
    report.cells = view.cellResults();
    return report;
}

void
saveReport(const CharacterizationReport &report,
           const std::string &path)
{
    const std::string text = serializeReport(report);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        util::fatalError("cannot write report to '" + path + "'");
    out.write(text.data(),
              static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out)
        // ENOSPC/EIO surface here, not in the destructor where the
        // historical code silently dropped them.
        util::fatalError("report: write to '" + path +
                         "' failed while emitting " +
                         std::to_string(text.size()) +
                         " bytes (disk full?)");
}

CharacterizationReport
loadReport(const std::string &path, const SeverityWeights &weights)
{
    std::ifstream in(path);
    if (!in)
        util::fatalError("cannot read report from '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return deserializeReport(text.str(), weights);
}

Seed
mixSweepKnobs(Seed hash, const FrameworkConfig &config)
{
    hash = util::mixSeed(hash,
                         static_cast<uint64_t>(config.frequency));
    hash = util::mixSeed(hash,
                         static_cast<uint64_t>(config.startVoltage));
    hash = util::mixSeed(hash,
                         static_cast<uint64_t>(config.endVoltage));
    hash = util::mixSeed(
        hash, static_cast<uint64_t>(config.runsPerVoltage));
    hash = util::mixSeed(hash,
                         static_cast<uint64_t>(config.campaigns));
    hash = util::mixSeed(hash, config.maxEpochs);
    hash = util::mixSeed(
        hash, static_cast<uint64_t>(config.fanTarget * 1e3));
    hash = util::mixSeed(
        hash, static_cast<uint64_t>(config.retryPolicy.attemptsPerOp));
    hash = util::mixSeed(
        hash, static_cast<uint64_t>(config.retryPolicy.watchdogPolls));
    hash = util::mixSeed(hash, config.retryPolicy.backoffBaseUs);
    hash = util::mixSeed(hash, config.retryPolicy.backoffCapUs);
    return hash;
}

Seed
mixChipIdentity(Seed hash, const ChipRef &chip)
{
    return util::mixSeed(hash, chip.key());
}

Seed
mixFaultPlan(Seed hash, const sim::Platform &platform)
{
    if (const sim::FaultPlan *plan = platform.faultPlan()) {
        hash = util::mixSeed(hash, plan->config().seed);
        for (size_t op = 0; op < sim::kNumFaultOps; ++op)
            hash = util::mixSeed(
                hash,
                static_cast<uint64_t>(
                    plan->config().probability(
                        static_cast<sim::FaultOp>(op)) *
                    1e9));
    }
    return hash;
}

namespace
{

/** Mix the measurement-shaping knobs shared by the journal header
 *  and the per-cell cache key: everything except the workload/core
 *  lists. */
Seed
mixMeasurementKnobs(Seed hash, const FrameworkConfig &config,
                    const sim::Platform &platform)
{
    hash = mixSweepKnobs(hash, config);
    hash = mixChipIdentity(hash, chipRefOf(platform));
    return mixFaultPlan(hash, platform);
}

} // namespace

Seed
cellConfigHash(const FrameworkConfig &config,
               const sim::Platform &platform)
{
    return mixMeasurementKnobs(
        util::hashSeed("vmargin-cell-config"), config, platform);
}

std::string
journalHeaderFor(const FrameworkConfig &config,
                 const sim::Platform &platform)
{
    // Hash every knob that shapes the measurements; a journal
    // recorded under any other configuration must be refused, or a
    // resumed sweep would silently mix incompatible cells. Unlike
    // the cell cache key, the workload and core lists are included:
    // one journal binds to one exact sweep.
    Seed hash = util::hashSeed("vmargin-journal-config");
    for (const auto &workload : config.workloads)
        hash = util::mixSeed(hash, util::hashSeed(workload.id()));
    for (const CoreId core : config.cores)
        hash = util::mixSeed(hash, static_cast<uint64_t>(core));
    hash = mixMeasurementKnobs(hash, config, platform);

    std::ostringstream os;
    os << "vmargin-journal chip=" << platform.chip().name()
       << " corner=" << sim::cornerName(platform.chip().corner())
       << " freq=" << config.frequency << " config=" << std::hex
       << hash;
    return os.str();
}

CampaignJournal::CampaignJournal(std::string path,
                                 LedgerWriteOptions options)
    : ledger_(std::move(path), "journal", options)
{
}

void
CampaignJournal::open(const std::string &header,
                      ChipRef implicit_chip)
{
    ledger_.open(header,
                 "was recorded for a different experiment "
                 "(header mismatch); refusing to resume from it",
                 implicit_chip);
}

const CellMeasurement *
CampaignJournal::find(const ChipRef &chip,
                      const std::string &workload_id,
                      CoreId core) const
{
    return ledger_.find(0, chip, workload_id, core);
}

std::optional<CellMeasurement>
CampaignJournal::take(const ChipRef &chip,
                      const std::string &workload_id, CoreId core)
{
    return ledger_.take(0, chip, workload_id, core);
}

size_t
CampaignJournal::size() const
{
    return ledger_.size();
}

void
CampaignJournal::append(const CellMeasurement &cell)
{
    ledger_.append(0, cell);
}

void
CampaignJournal::flush()
{
    ledger_.flush();
}

DaemonJournal::DaemonJournal(std::string path,
                             LedgerWriteOptions options)
    : ledger_(std::move(path), "daemon-journal", options)
{
}

void
DaemonJournal::open(const std::string &header)
{
    ledger_.open(header,
                 "was recorded for a different daemon session "
                 "(header mismatch); refusing to resume from it");
}

void
DaemonJournal::append(const DaemonRoundRecord &round,
                      const SupervisorCheckpoint &state)
{
    ledger_.appendDaemonRound(round, state);
}

void
DaemonJournal::flush()
{
    ledger_.flush();
}

} // namespace vmargin
