/**
 * @file
 * shrimp_analyze — offline analysis of a run's two outputs: the
 * RunReport and the causal log.
 *
 * Reads RunReport documents (pretty files from `shrimp_run
 * --stats-json`, or compact JSONL streams from SHRIMP_REPORT_JSONL)
 * and prints the run identity (app, processors, elapsed, messages)
 * and, for runs with lifecycle tracing, a per-stage latency
 * attribution table (count, mean, p50, p95, p99) with the pipeline
 * consistency check "sum of stage p50s vs end-to-end p50".
 *
 * Causal logs (`shrimp_run --causal` / SHRIMP_CAUSAL) are sniffed the
 * same way. For each it prints the aggregate packet-stage means (the
 * receive hook that emits the pkt.* spans also feeds the
 * latency_breakdown block, so for a run with both on the means agree)
 * and the samples, mean and peak of every gauge the log's counter
 * lines hold (runs that sampled with --metrics-interval-us).
 * --critical-path reconstructs the span DAG of one operation (--op
 * picks it by name substring, default: the longest coll.reduce span,
 * else the longest trace root) and prints an exact per-layer
 * attribution of its interval.
 *
 * With --validate it only checks the documents against the published
 * schemas (RunReport schema_version 3; causal_schema 2 with the
 * span-DAG and counter invariants) and exits nonzero on the first
 * violation — CI runs this over every artifact.
 *
 * With --chrome it draws one causal log as a Chrome trace_event
 * timeline on stdout, one event per span and one counter event per
 * gauge sample (causal_read::writeChrome).
 *
 * Examples:
 *   shrimp_analyze report.json causal.jsonl
 *   shrimp_analyze --critical-path --op svm.barrier causal.jsonl
 *   shrimp_analyze --validate report.json causal.jsonl
 *   shrimp_analyze --chrome causal.jsonl > trace.json
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/causal_read.hh"
#include "sim/json_in.hh"
#include "sim/report_schema.hh"

using namespace shrimp;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: shrimp_analyze [--validate] [--critical-path]\n"
        "                      [--op SUBSTR] FILE...\n"
        "       shrimp_analyze --chrome LOG > trace.json\n"
        "\n"
        "FILEs may be RunReport JSON documents, RunReport JSONL\n"
        "streams, or causal logs (shrimp_run --causal), whose gauge\n"
        "means and peaks are printed; the format is sniffed per file.\n"
        "\n"
        "  --critical-path  reconstruct the span DAG of one operation\n"
        "                   in each causal log and print its exact\n"
        "                   per-layer time attribution\n"
        "  --op SUBSTR      pick the operation: the longest span whose\n"
        "                   name contains SUBSTR (default: the longest\n"
        "                   coll.reduce span, else the longest trace\n"
        "                   root)\n"
        "  --validate       schema/invariant checks only; exit nonzero\n"
        "                   on the first violation\n"
        "  --chrome         draw the causal log LOG as a Chrome\n"
        "                   trace_event timeline on stdout, its gauges\n"
        "                   as counter tracks (open it in Perfetto or\n"
        "                   chrome://tracing)\n");
    std::exit(2);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Split into nonempty lines (the JSONL framing). */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        if (nl > pos)
            lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

// ----------------------------------------------------------------------
// Report analysis
// ----------------------------------------------------------------------

void
printLatencyTable(const JsonValue &doc)
{
    const JsonValue *lb = doc.find("latency_breakdown");
    if (!lb || !lb->isObject()) {
        std::printf("  (no latency_breakdown -- run with --lifecycle "
                    "/ SHRIMP_LIFECYCLE=1)\n");
        return;
    }
    const JsonValue *stages = lb->find("stages");
    if (!stages || !stages->isArray())
        return;

    std::printf("  %-15s %8s %9s %9s %9s %9s\n", "stage", "count",
                "mean_us", "p50_us", "p95_us", "p99_us");
    double sum_p50 = 0, total_p50 = 0;
    for (const auto &s : stages->array) {
        const JsonValue *name = s.find("stage");
        if (!name || !name->isString())
            continue;
        double p50 = s.numberOr("p50_us", 0);
        if (name->str == "total")
            total_p50 = p50;
        else
            sum_p50 += p50;
        std::printf("  %-15s %8.0f %9.3f %9.3f %9.3f %9.3f\n",
                    name->str.c_str(), s.numberOr("count", 0),
                    s.numberOr("mean_us", 0), p50,
                    s.numberOr("p95_us", 0), s.numberOr("p99_us", 0));
    }
    if (total_p50 > 0) {
        double pct = 100.0 * (sum_p50 - total_p50) / total_p50;
        std::printf("  stage p50 sum: %.3f us vs end-to-end p50 %.3f "
                    "us (%+.1f%%)\n",
                    sum_p50, total_p50, pct);
    }
}

void
printReport(const JsonValue &doc)
{
    const JsonValue *app = doc.find("app");
    std::printf("run: %s  procs=%.0f  elapsed=%.3f ms  "
                "messages=%.0f\n",
                app && app->isString() ? app->str.c_str() : "?",
                doc.numberOr("nprocs", 0),
                doc.numberOr("elapsed_ms", 0),
                doc.numberOr("messages", 0));
    printLatencyTable(doc);
}

// ----------------------------------------------------------------------
// Causal trace analysis
// ----------------------------------------------------------------------

/** --critical-path: breakdown of one operation's span subtree. */
bool
printCriticalPath(const causal_read::Log &log, const std::string &op,
                  const std::string &path)
{
    // Default: the longest collective (the barrier is the natural
    // "one operation" of every Table-1 app), else the longest root.
    const causal_read::Span *root = nullptr;
    if (!op.empty()) {
        root = causal_read::findRoot(log, op);
        if (!root) {
            std::fprintf(stderr, "%s: no span matching '%s'\n",
                         path.c_str(), op.c_str());
            return false;
        }
    } else {
        root = causal_read::findRoot(log, "coll.reduce");
        if (!root)
            root = causal_read::findRoot(log, "");
        if (!root) {
            std::fprintf(stderr, "%s: no spans\n", path.c_str());
            return false;
        }
    }

    causal_read::CriticalPath cp;
    std::string err;
    if (!causal_read::criticalPath(log, root->id, cp, &err)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
        return false;
    }

    std::printf("critical path: %s  span=%llu node=%d  "
                "[%.3f .. %.3f us]  total=%.3f us\n",
                cp.rootName.c_str(), (unsigned long long)cp.rootId,
                root->node, double(cp.startPs) * 1e-6,
                double(cp.endPs) * 1e-6, double(cp.totalPs) * 1e-6);
    std::printf("  %-18s %10s %7s %9s\n", "stage", "us", "pct",
                "segments");
    std::uint64_t sum = 0;
    for (const auto &a : cp.stages) {
        sum += a.ps;
        std::printf("  %-18s %10.3f %6.1f%% %9llu\n", a.name.c_str(),
                    double(a.ps) * 1e-6,
                    cp.totalPs ? 100.0 * double(a.ps) /
                                     double(cp.totalPs)
                               : 0.0,
                    (unsigned long long)a.segments);
    }
    std::printf("  stage sum: %.3f us vs operation total %.3f us "
                "(%s)\n",
                double(sum) * 1e-6, double(cp.totalPs) * 1e-6,
                sum == cp.totalPs ? "exact" : "MISMATCH");
    return sum == cp.totalPs;
}

/** Aggregate pkt.* stage means over the causal log. */
void
printPacketStages(const causal_read::Log &log)
{
    auto stats = causal_read::packetStageStats(log);
    if (stats.empty())
        return;
    std::printf("packet stages (causal log aggregate):\n");
    std::printf("  %-18s %8s %9s\n", "stage", "count", "mean_us");
    double sum = 0, total = 0;
    for (const auto &s : stats) {
        if (s.name == "pkt.total")
            total = s.meanPs;
        else
            sum += s.meanPs;
        std::printf("  %-18s %8llu %9.3f\n", s.name.c_str(),
                    (unsigned long long)s.count, s.meanPs * 1e-6);
    }
    if (total > 0)
        std::printf("  stage mean sum: %.3f us vs pkt.total mean "
                    "%.3f us (%+.1f%%)\n",
                    sum * 1e-6, total * 1e-6,
                    100.0 * (sum - total) / total);
}

/** Samples, mean and peak of every gauge in the causal log. */
void
printGauges(const causal_read::Log &log)
{
    auto stats = causal_read::gaugeStats(log);
    if (stats.empty())
        return;
    std::printf("gauges (causal log counters):\n");
    std::printf("  %-28s %8s %12s %12s\n", "gauge", "samples", "mean",
                "peak");
    for (const auto &g : stats)
        std::printf("  %-28s %8llu %12.4f %12.4f\n",
                    causal_read::gaugeLabel(g.node, g.name).c_str(),
                    (unsigned long long)g.samples, g.mean, g.peak);
}

/** Load and validate a causal log; report a failure on stderr. */
bool
loadValidLog(const std::string &path, causal_read::Log &log)
{
    std::string err;
    if (causal_read::load(path, log, &err) &&
        causal_read::validate(log, &err))
        return true;
    std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
    return false;
}

/** --chrome: draw a valid causal log as a Chrome timeline. */
bool
drawChrome(const std::string &path)
{
    causal_read::Log log;
    if (!loadValidLog(path, log))
        return false;
    causal_read::writeChrome(log, std::cout);
    std::cout.flush();
    return bool(std::cout);
}

/** A causal trace log: validate always, analyze unless --validate. */
bool
processCausal(const std::string &path, bool validate_only,
              bool critical_path, const std::string &op)
{
    causal_read::Log log;
    if (!loadValidLog(path, log))
        return false;
    if (validate_only && !critical_path) {
        std::printf("%s: OK (causal, %zu spans, %zu counters)\n",
                    path.c_str(), log.spans.size(), log.counters.size());
        return true;
    }

    std::size_t traces = 0;
    for (const auto &s : log.spans)
        traces += s.parent == 0;
    std::printf("causal log: %zu spans in %zu traces\n",
                log.spans.size(), traces);
    bool ok = true;
    if (critical_path)
        ok = printCriticalPath(log, op, path);
    printPacketStages(log);
    printGauges(log);
    return ok;
}

// ----------------------------------------------------------------------
// Per-file driver
// ----------------------------------------------------------------------

/** Process one file; returns false on any parse/validation failure. */
bool
processFile(const std::string &path, bool validate_only,
            bool critical_path, const std::string &op)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "%s: cannot read\n", path.c_str());
        return false;
    }

    // A whole-file parse catches pretty (multi-line) report documents;
    // anything else is treated as JSONL.
    JsonValue whole;
    if (parseJson(text, whole)) {
        std::string err;
        // A header-only causal log (a run that emitted no spans) is a
        // single JSON object too.
        if (whole.find("causal_schema"))
            return processCausal(path, validate_only, critical_path,
                                 op);
        if (!validateReport(whole, &err)) {
            std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
            return false;
        }
        if (validate_only)
            std::printf("%s: OK (report)\n", path.c_str());
        else
            printReport(whole);
        return true;
    }

    std::vector<std::string> lines = splitLines(text);
    if (lines.empty()) {
        std::fprintf(stderr, "%s: empty file\n", path.c_str());
        return false;
    }

    JsonValue first;
    std::string err;
    if (!parseJson(lines[0], first, &err)) {
        std::fprintf(stderr, "%s:1: %s\n", path.c_str(), err.c_str());
        return false;
    }

    if (first.find("causal_schema"))
        return processCausal(path, validate_only, critical_path, op);

    // A stream of compact one-line reports.
    for (std::size_t n = 0; n < lines.size(); ++n) {
        JsonValue doc;
        if (!parseJson(lines[n], doc, &err)) {
            std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), n + 1,
                         err.c_str());
            return false;
        }
        if (!validateReport(doc, &err)) {
            std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), n + 1,
                         err.c_str());
            return false;
        }
        if (!validate_only) {
            printReport(doc);
            if (n + 1 < lines.size())
                std::printf("\n");
        }
    }
    if (validate_only)
        std::printf("%s: OK (%zu reports)\n", path.c_str(),
                    lines.size());
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool validate_only = false;
    bool critical_path = false;
    bool chrome = false;
    std::string op;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--validate") == 0)
            validate_only = true;
        else if (std::strcmp(argv[i], "--critical-path") == 0)
            critical_path = true;
        else if (std::strcmp(argv[i], "--chrome") == 0)
            chrome = true;
        else if (std::strcmp(argv[i], "--op") == 0) {
            if (++i >= argc)
                usage();
            op = argv[i];
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0)
            usage();
        else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            usage();
        } else
            files.push_back(argv[i]);
    }
    if (files.empty())
        usage();
    if (chrome) {
        if (files.size() != 1 || validate_only || critical_path)
            usage();
        return drawChrome(files[0]) ? 0 : 1;
    }

    bool ok = true;
    for (std::size_t i = 0; i < files.size(); ++i) {
        if (i && !validate_only)
            std::printf("\n");
        ok = processFile(files[i], validate_only, critical_path, op) &&
             ok;
    }
    return ok ? 0 : 1;
}
