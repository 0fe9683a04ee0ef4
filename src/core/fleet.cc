#include "fleet.hh"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>

#include "executor.hh"
#include "resultstore.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/strings.hh"

namespace vmargin
{

namespace
{

bool
cornerNamed(const std::string &name, sim::ChipCorner &out)
{
    for (const sim::ChipCorner corner : sim::kAllCorners) {
        if (sim::cornerName(corner) == name) {
            out = corner;
            return true;
        }
    }
    return false;
}

} // namespace

ChipRef
parseChipSpec(const std::string &spec)
{
    const auto colon = spec.find(':');
    const std::string corner_name = spec.substr(0, colon);

    ChipRef chip;
    if (!cornerNamed(corner_name, chip.corner))
        util::fatalError("--chip: unknown corner '" + corner_name +
                         "' in '" + spec +
                         "' (expected TTT, TFF or TSS)");

    if (colon == std::string::npos) {
        chip.serial = 1;
        return chip;
    }

    const std::string serial_text = spec.substr(colon + 1);
    char *end = nullptr;
    const unsigned long serial =
        std::strtoul(serial_text.c_str(), &end, 10);
    if (serial_text.empty() || *end != '\0' ||
        serial > 0xffffffffUL)
        util::fatalError("--chip: malformed serial '" + serial_text +
                         "' in '" + spec +
                         "' (expected CORNER[:serial])");
    if (serial == 0)
        util::fatalError(
            "--chip: serial 0 in '" + spec +
            "' is reserved for legacy single-chip records; "
            "serials start at 1");
    chip.serial = static_cast<uint32_t>(serial);
    return chip;
}

std::vector<ChipRef>
parseFleetSpec(const std::vector<std::string> &specs)
{
    if (specs.empty())
        util::fatalError(
            "--chip: a fleet needs at least one chip "
            "(pass --chip CORNER[:serial], repeatable)");

    std::vector<ChipRef> chips;
    chips.reserve(specs.size());
    for (const auto &spec : specs) {
        const ChipRef chip = parseChipSpec(spec);
        for (const ChipRef &existing : chips)
            if (existing == chip)
                util::fatalError("--chip: duplicate chip " +
                                 chip.name() + " in fleet spec");
        chips.push_back(chip);
    }
    return chips;
}

void
FleetConfig::validate() const
{
    if (chips.empty())
        util::fatalError("FleetConfig: no chips");
    for (size_t i = 0; i < chips.size(); ++i) {
        if (chips[i].serial == 0)
            util::fatalError(
                "FleetConfig: chip " + chips[i].name() +
                " uses serial 0, reserved for legacy single-chip "
                "records");
        for (size_t j = i + 1; j < chips.size(); ++j)
            if (chips[i] == chips[j])
                util::fatalError("FleetConfig: duplicate chip " +
                                 chips[i].name());
    }
    framework.validate();
}

std::vector<ChipRef>
FleetConfig::canonicalChips() const
{
    std::vector<ChipRef> sorted = chips;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
}

const CharacterizationReport &
FleetReport::report(const ChipRef &chip) const
{
    for (const auto &entry : chips)
        if (entry.chip == chip)
            return entry.report;
    util::fatalError("FleetReport: chip " + chip.name() +
                     " is not in this fleet");
}

std::vector<CornerSummary>
FleetReport::cornerSummaries() const
{
    std::vector<CornerSummary> summaries;
    for (const sim::ChipCorner corner : sim::kAllCorners) {
        CornerSummary summary;
        summary.corner = corner;
        uint64_t vmin_total = 0;
        for (const auto &entry : chips) {
            if (entry.chip.corner != corner)
                continue;
            ++summary.chips;
            for (const auto &cell : entry.report.cells) {
                const MilliVolt vmin = cell.analysis.vmin;
                if (vmin == 0)
                    continue; // censored: no effect down to floor
                if (summary.cells == 0 || vmin < summary.bestVmin)
                    summary.bestVmin = vmin;
                if (summary.cells == 0 || vmin > summary.worstVmin)
                    summary.worstVmin = vmin;
                vmin_total += static_cast<uint64_t>(vmin);
                ++summary.cells;
            }
        }
        if (summary.chips == 0)
            continue;
        if (summary.cells > 0) {
            summary.meanVmin = static_cast<double>(vmin_total) /
                               static_cast<double>(summary.cells);
            summary.guardbandMv = nominalMv - summary.worstVmin;
            const double ratio =
                static_cast<double>(summary.worstVmin) /
                static_cast<double>(nominalMv);
            summary.savingsPercent = (1.0 - ratio * ratio) * 100.0;
        }
        summaries.push_back(summary);
    }
    return summaries;
}

double
FleetReport::fleetSavingsPercent() const
{
    MilliVolt worst = 0;
    for (const auto &entry : chips)
        for (const auto &cell : entry.report.cells)
            if (cell.analysis.vmin > worst)
                worst = cell.analysis.vmin;
    if (worst == 0)
        return 0.0;
    const double ratio = static_cast<double>(worst) /
                         static_cast<double>(nominalMv);
    return (1.0 - ratio * ratio) * 100.0;
}

namespace
{

/** Append the comparison CSV of @p fleet to @p out. */
void
appendComparison(std::string &out, const FleetReport &fleet)
{
    // Workload rows in first-seen order across canonical chips, so
    // a chip that only measured a subset still contributes rows in
    // a deterministic position.
    std::vector<std::string> workload_ids;
    std::set<std::string> seen;
    for (const auto &entry : fleet.chips)
        for (const auto &cell : entry.report.cells)
            if (seen.insert(cell.workloadId).second)
                workload_ids.push_back(cell.workloadId);

    util::CsvWriter csv(out);
    csv.field("workload");
    for (const auto &entry : fleet.chips)
        csv.field(entry.chip.name());
    csv.endRow();
    for (const auto &workload_id : workload_ids) {
        csv.field(workload_id);
        for (const auto &entry : fleet.chips) {
            const auto &cells = entry.report.cells;
            const bool has = std::any_of(
                cells.begin(), cells.end(),
                [&](const CellResult &cell) {
                    return cell.workloadId == workload_id;
                });
            if (has)
                csv.field(entry.report.bestCoreVmin(workload_id));
            else
                csv.field("");
        }
        csv.endRow();
    }
}

} // namespace

std::string
FleetReport::comparisonCsv() const
{
    std::string out;
    appendComparison(out, *this);
    return out;
}

std::string
FleetReport::serialize() const
{
    size_t runs = 0;
    for (const auto &entry : chips)
        runs += entry.report.allRuns.size();
    std::string out;
    out.reserve(runs * kReportBytesPerRun + 4096);

    out.append("# vmargin-fleet chips=" + std::to_string(chips.size()) +
               " corners=");
    for (size_t i = 0; i < chips.size(); ++i)
        out.append(i ? "," : "").append(chips[i].chip.name());
    out.append(" freq=" + std::to_string(frequency) +
               " nominal_mv=" + std::to_string(nominalMv) + "\n");
    for (const auto &entry : chips) {
        out.append("== chip " + entry.chip.name() + " ==\n");
        appendReport(out, entry.report);
    }

    out.append("== corner summary ==\n");
    util::CsvWriter csv(out);
    csv.row({"corner", "chips", "cells", "best_vmin_mv", "worst_vmin_mv",
             "mean_vmin_mv", "guardband_mv", "savings_pct"});
    for (const auto &summary : cornerSummaries())
        csv.field(sim::cornerName(summary.corner))
            .field(summary.chips)
            .field(summary.cells)
            .field(summary.bestVmin)
            .field(summary.worstVmin)
            .field(summary.meanVmin, 1)
            .field(summary.guardbandMv)
            .field(summary.savingsPercent, 2)
            .endRow();

    out.append("== comparison ==\n");
    appendComparison(out, *this);
    out.append("fleet_savings_pct=");
    util::appendFixed(out, fleetSavingsPercent(), 2);
    out += '\n';
    return out;
}

std::string
fleetJournalHeaderFor(const FleetConfig &config,
                      const sim::Platform &platform)
{
    // Same recipe as journalHeaderFor, with the canonical chip set
    // in place of the single platform chip: a reordered --chip list
    // binds to the same journal, any other change refuses it.
    Seed hash = util::hashSeed("vmargin-fleet-journal-config");
    for (const auto &workload : config.framework.workloads)
        hash = util::mixSeed(hash, util::hashSeed(workload.id()));
    for (const CoreId core : config.framework.cores)
        hash = util::mixSeed(hash, static_cast<uint64_t>(core));
    hash = mixSweepKnobs(hash, config.framework);
    const std::vector<ChipRef> chips = config.canonicalChips();
    for (const ChipRef &chip : chips)
        hash = mixChipIdentity(hash, chip);
    hash = mixFaultPlan(hash, platform);

    std::ostringstream os;
    os << "vmargin-fleet-journal chips=" << chips.size()
       << " corners=";
    for (size_t i = 0; i < chips.size(); ++i)
        os << (i ? "," : "") << chips[i].name();
    os << " freq=" << config.framework.frequency
       << " config=" << std::hex << hash;
    return os.str();
}

FleetExecutor::FleetExecutor(sim::Platform *tmpl) : template_(tmpl)
{
    if (!template_)
        util::panicf("FleetExecutor: null template platform");
}

FleetReport
FleetExecutor::run(const FleetConfig &config)
{
    config.validate();
    // The template is never executed on: cells replicate their
    // chip's prototype. Fleet journals are written at the current
    // ledger version, so no legacy cell needs an implicit chip.
    std::vector<std::unique_ptr<sim::Platform>> owned;
    std::vector<const sim::Platform *> prototypes;
    for (const ChipRef &chip : config.canonicalChips()) {
        owned.push_back(template_->freshReplica(chip.corner, chip.serial));
        prototypes.push_back(owned.back().get());
    }
    std::vector<CharacterizationReport> reports =
        executeSweep(prototypes, config.framework,
                     fleetJournalHeaderFor(config, *template_), ChipRef{});

    FleetReport fleet;
    fleet.frequency = config.framework.frequency;
    fleet.nominalMv = template_->chip().params().nominalPmdVoltage;
    fleet.complete = reports.front().complete;
    fleet.chips.reserve(reports.size());
    for (size_t i = 0; i < reports.size(); ++i)
        fleet.chips.push_back(
            {chipRefOf(*prototypes[i]), std::move(reports[i])});
    return fleet;
}

} // namespace vmargin
