#include "classifier.hh"

#include <charconv>
#include <cstdlib>
#include <iterator>
#include <map>

#include "util/logging.hh"
#include "util/strings.hh"

namespace vmargin
{

using util::panicf;

std::vector<std::string>
formatRunLog(const RunKey &key, const sim::RunResult &run)
{
    std::vector<std::string> lines;
    lines.push_back(util::concat(
        "RUN workload=", key.workloadId, " core=", key.core,
        " voltage=", key.voltage, " freq=", key.frequency,
        " campaign=", key.campaign, " run=", key.runIndex));
    lines.push_back(util::concat("STATUS responsive=",
                                 run.systemCrashed ? 0 : 1));
    lines.push_back(util::concat("EXIT code=", run.exitCode,
                                 " completed=",
                                 run.completed ? 1 : 0));
    lines.push_back(util::concat("OUTPUT match=",
                                 run.outputMatches ? 1 : 0));
    lines.push_back(util::concat("EDAC ce=", run.correctedErrors,
                                 " ue=", run.uncorrectedErrors));
    for (const auto &record : run.errors)
        lines.push_back(util::concat(
            "EDAC_SITE kind=", sim::errorKindName(record.kind),
            " site=", sim::errorSiteName(record.site),
            " count=", record.count));
    lines.push_back(util::concat("SDC events=", run.sdcEvents));
    lines.push_back(util::concat(
        "TIME seconds=", util::formatDouble(run.simulatedSeconds, 6),
        " ipc=", util::formatDouble(run.avgIpc, 4),
        " activity=", util::formatDouble(run.activityFactor, 4)));
    return lines;
}

namespace
{

/** Parse "key=value key=value ..." after the leading tag. */
std::map<std::string, std::string>
parseFields(const std::string &line)
{
    std::map<std::string, std::string> fields;
    for (const auto &token : util::split(line, ' ')) {
        const auto eq = token.find('=');
        if (eq == std::string::npos)
            continue;
        fields[token.substr(0, eq)] = token.substr(eq + 1);
    }
    return fields;
}

long
asLong(const std::map<std::string, std::string> &fields,
       const std::string &name, const std::string &line)
{
    auto it = fields.find(name);
    if (it == fields.end())
        panicf("parseRunLog: missing field '", name, "' in: ", line);
    if (!util::isInteger(it->second))
        panicf("parseRunLog: field '", name, "'='", it->second,
               "' is not an integer");
    return std::strtol(it->second.c_str(), nullptr, 10);
}

double
asDouble(const std::map<std::string, std::string> &fields,
         const std::string &name, const std::string &line)
{
    auto it = fields.find(name);
    if (it == fields.end())
        panicf("parseRunLog: missing field '", name, "' in: ", line);
    if (!util::isNumber(it->second))
        panicf("parseRunLog: field '", name, "'='", it->second,
               "' is not a number");
    return std::strtod(it->second.c_str(), nullptr);
}

} // namespace

ClassifiedRun
parseRunLog(const std::vector<std::string> &lines)
{
    if (lines.empty())
        panicf("parseRunLog: empty log");

    ClassifiedRun run;
    bool responsive = true;
    bool completed = false;
    bool output_match = true;

    for (const auto &line : lines) {
        const auto fields = parseFields(line);
        if (util::startsWith(line, "RUN ")) {
            auto it = fields.find("workload");
            if (it == fields.end())
                panicf("parseRunLog: RUN line without workload: ",
                       line);
            run.key.workloadId = it->second;
            run.key.core =
                static_cast<CoreId>(asLong(fields, "core", line));
            run.key.voltage = static_cast<MilliVolt>(
                asLong(fields, "voltage", line));
            run.key.frequency = static_cast<MegaHertz>(
                asLong(fields, "freq", line));
            run.key.campaign = static_cast<uint32_t>(
                asLong(fields, "campaign", line));
            run.key.runIndex =
                static_cast<uint32_t>(asLong(fields, "run", line));
        } else if (util::startsWith(line, "STATUS ")) {
            responsive = asLong(fields, "responsive", line) != 0;
        } else if (util::startsWith(line, "EXIT ")) {
            run.exitCode =
                static_cast<int>(asLong(fields, "code", line));
            completed = asLong(fields, "completed", line) != 0;
        } else if (util::startsWith(line, "OUTPUT ")) {
            output_match = asLong(fields, "match", line) != 0;
        } else if (util::startsWith(line, "EDAC ")) {
            run.correctedErrors =
                static_cast<uint64_t>(asLong(fields, "ce", line));
            run.uncorrectedErrors =
                static_cast<uint64_t>(asLong(fields, "ue", line));
        } else if (util::startsWith(line, "SDC ")) {
            run.sdcEvents =
                static_cast<uint64_t>(asLong(fields, "events", line));
        } else if (util::startsWith(line, "TIME ")) {
            run.seconds = asDouble(fields, "seconds", line);
            run.avgIpc = asDouble(fields, "ipc", line);
            run.activityFactor = asDouble(fields, "activity", line);
        }
        else if (util::startsWith(line, "EDAC_SITE ")) {
            auto kind_it = fields.find("kind");
            auto site_it = fields.find("site");
            if (kind_it == fields.end() || site_it == fields.end())
                panicf("parseRunLog: malformed EDAC_SITE line: ",
                       line);
            const auto site = sim::siteFromName(site_it->second);
            if (!site)
                panicf("parseRunLog: unknown site '", site_it->second,
                       "' in: ", line);
            const auto count = static_cast<uint64_t>(
                asLong(fields, "count", line));
            if (kind_it->second == "CE")
                run.correctedBySite[*site] += count;
            else
                run.uncorrectedBySite[*site] += count;
        }
    }

    if (!responsive)
        run.effects.add(Effect::SC);
    if (responsive && run.exitCode != 0)
        run.effects.add(Effect::AC);
    if (completed && !output_match)
        run.effects.add(Effect::SDC);
    if (run.correctedErrors > 0)
        run.effects.add(Effect::CE);
    if (run.uncorrectedErrors > 0)
        run.effects.add(Effect::UE);
    return run;
}

namespace
{

/** Quantize @p value exactly as a trip through the text log would:
 *  render at the log's fixed precision, then re-parse. */
double
throughLogPrecision(double value, int precision)
{
    const std::string text = util::formatDouble(value, precision);
    double parsed = 0.0;
    std::from_chars(text.data(), text.data() + text.size(), parsed);
    return parsed;
}

} // namespace

ClassifiedRun
classifyRunRecord(const RunKey &key, const sim::RunResult &run)
{
    ClassifiedRun out;
    out.key = key;
    out.exitCode = run.exitCode;
    out.sdcEvents = run.sdcEvents;
    out.correctedErrors = run.correctedErrors;
    out.uncorrectedErrors = run.uncorrectedErrors;
    out.seconds = throughLogPrecision(run.simulatedSeconds, 6);
    out.avgIpc = throughLogPrecision(run.avgIpc, 4);
    out.activityFactor =
        throughLogPrecision(run.activityFactor, 4);

    for (const auto &record : run.errors) {
        sim::SiteCounts &sites =
            record.kind == sim::ErrorKind::Corrected
                ? out.correctedBySite
                : out.uncorrectedBySite;
        sites[record.site] += record.count;
    }

    if (run.systemCrashed)
        out.effects.add(Effect::SC);
    if (!run.systemCrashed && run.exitCode != 0)
        out.effects.add(Effect::AC);
    if (run.completed && !run.outputMatches)
        out.effects.add(Effect::SDC);
    if (run.correctedErrors > 0)
        out.effects.add(Effect::CE);
    if (run.uncorrectedErrors > 0)
        out.effects.add(Effect::UE);
    return out;
}

std::vector<std::string>
formatCampaignLog(const std::vector<RunLogRecord> &records)
{
    std::vector<std::string> lines;
    lines.reserve(records.size() * 8);
    for (const auto &record : records) {
        auto run_lines = formatRunLog(record.key, record.run);
        lines.insert(lines.end(),
                     std::make_move_iterator(run_lines.begin()),
                     std::make_move_iterator(run_lines.end()));
    }
    return lines;
}

std::vector<ClassifiedRun>
parseCampaignLog(const std::vector<std::string> &lines)
{
    std::vector<ClassifiedRun> runs;
    std::vector<std::string> current;
    for (const auto &line : lines) {
        if (util::startsWith(line, "RUN ") && !current.empty()) {
            runs.push_back(parseRunLog(current));
            current.clear();
        }
        current.push_back(line);
    }
    if (!current.empty())
        runs.push_back(parseRunLog(current));
    return runs;
}

} // namespace vmargin
