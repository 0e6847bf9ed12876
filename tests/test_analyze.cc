/**
 * @file
 * The offline-analysis foundations: the JSON parser (sim/json_in.hh),
 * the report validator and the causal log's counter checks that
 * shrimp_analyze --validate is built on, and the Chrome timeline
 * shrimp_analyze --chrome draws from a causal log. The writers' output
 * must round-trip through the parser and pass validation; targeted
 * mutations must be rejected.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/causal_read.hh"
#include "sim/json_in.hh"
#include "sim/report_schema.hh"
#include "sim/run_report.hh"
#include "sim/stats.hh"

using namespace shrimp;

namespace
{

/** A RunReport with every optional block populated. */
RunReport
sampleReport()
{
    RunReport rep;
    rep.app = "unit";
    rep.nprocs = 2;
    rep.elapsed = microseconds(1234);
    rep.messages = 7;
    rep.notifications = 1;
    rep.checksum = 42;
    rep.params["keys"] = "1024";
    rep.perProcess.resize(2);

    rep.stats.counter("c").inc(3);
    rep.stats.accumulator("a").sample(1.5);
    rep.stats.histogram("lin", 0.0, 10.0, 10).sample(2.0);
    rep.stats.logHistogram("log", 0.01, 100.0, 32).sample(5.0);
    rep.stats.scalar("s").set(9.0);

    rep.latency.enabled = true;
    for (const char *stage :
         {"send_overhead", "ni_wait", "wire", "rx_fifo", "delivery",
          "total"}) {
        RunReport::StageLatency sl;
        sl.stage = stage;
        sl.count = 7;
        sl.meanUs = 1.0;
        sl.p50Us = 1.0;
        sl.p95Us = 2.0;
        sl.p99Us = 3.0;
        rep.latency.stages.push_back(sl);
    }
    return rep;
}

/** Parse + validate one report document; returns the error if any. */
testing::AssertionResult
reportValidates(const std::string &json)
{
    JsonValue doc;
    std::string err;
    if (!parseJson(json, doc, &err))
        return testing::AssertionFailure() << "parse: " << err;
    if (!validateReport(doc, &err))
        return testing::AssertionFailure() << err;
    return testing::AssertionSuccess();
}

/** Replace the first occurrence of @p from with @p to. */
std::string
replaced(std::string text, const std::string &from,
         const std::string &to)
{
    auto pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos)
        text.replace(pos, from.size(), to);
    return text;
}

/** Write @p text to a temporary log file; @return its path. */
std::string
writeLog(const char *name, const std::string &text)
{
    std::string path = testing::TempDir() + name;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
    return path;
}

/** Load and validate a causal log held in @p text. */
testing::AssertionResult
logValidates(const std::string &text)
{
    std::string path = writeLog("analyze_counters.jsonl", text);
    causal_read::Log log;
    std::string err;
    bool ok = causal_read::load(path, log, &err) &&
              causal_read::validate(log, &err);
    std::remove(path.c_str());
    if (!ok)
        return testing::AssertionFailure() << err;
    return testing::AssertionSuccess();
}

} // anonymous namespace

// ----------------------------------------------------------------------
// The JSON parser
// ----------------------------------------------------------------------

TEST(JsonIn, ParsesScalarsContainersAndEscapes)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(R"({"a": [1, -2.5e3, true, null],
                              "b": {"nested": "x\tyA"}})",
                          v));
    ASSERT_TRUE(v.isObject());
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->array.size(), 4u);
    EXPECT_EQ(a->array[0].number, 1.0);
    EXPECT_EQ(a->array[1].number, -2500.0);
    EXPECT_TRUE(a->array[2].boolean);
    EXPECT_TRUE(a->array[3].isNull());
    const JsonValue *b = v.find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->find("nested")->str, "x\tyA");
    EXPECT_EQ(v.find("absent"), nullptr);
    EXPECT_EQ(v.numberOr("absent", -1.0), -1.0);
}

TEST(JsonIn, RejectsMalformedDocuments)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\": }", v, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parseJson("[1, 2", v, &err));
    EXPECT_FALSE(parseJson("", v, &err));
    EXPECT_FALSE(parseJson("{} trailing", v, &err));
    EXPECT_FALSE(parseJson("'single'", v, &err));
}

TEST(JsonIn, RoundTripsTheReportWriter)
{
    std::string pretty = sampleReport().toJson(true);
    std::string compact = sampleReport().toJson(false);
    JsonValue a, b;
    std::string err;
    ASSERT_TRUE(parseJson(pretty, a, &err)) << err;
    ASSERT_TRUE(parseJson(compact, b, &err)) << err;
    EXPECT_EQ(a.numberOr("schema_version", 0),
              double(RunReport::kSchemaVersion));
    EXPECT_EQ(b.find("app")->str, "unit");
}

// ----------------------------------------------------------------------
// Report validation
// ----------------------------------------------------------------------

TEST(ReportSchema, AcceptsTheWritersOutput)
{
    EXPECT_TRUE(reportValidates(sampleReport().toJson(true)));
    EXPECT_TRUE(reportValidates(sampleReport().toJson(false)));

    // Reports without the optional blocks validate too.
    RunReport plain;
    plain.app = "plain";
    EXPECT_TRUE(reportValidates(plain.toJson(true)));
}

TEST(ReportSchema, RejectsSchemaVersionMismatch)
{
    std::string good = sampleReport().toJson(false);
    EXPECT_FALSE(reportValidates(
        replaced(good, "\"schema_version\":3", "\"schema_version\":2")));
    EXPECT_FALSE(reportValidates(
        replaced(good, "\"schema_version\":3",
                 "\"schema_version\":\"3\"")));
}

TEST(ReportSchema, RejectsMissingOrMistypedFields)
{
    std::string good = sampleReport().toJson(false);
    EXPECT_FALSE(
        reportValidates(replaced(good, "\"messages\"", "\"messagez\"")));
    EXPECT_FALSE(reportValidates(
        replaced(good, "\"app\":\"unit\"", "\"app\":17")));
    EXPECT_FALSE(reportValidates(
        replaced(good, "\"scale\":\"log\"", "\"scale\":\"cubist\"")));
    EXPECT_FALSE(reportValidates(
        replaced(good, "\"stage\":\"total\"", "\"stage\":\"tot\"")));
    EXPECT_FALSE(reportValidates("[1, 2, 3]"));
}

// ----------------------------------------------------------------------
// Counter lines in the causal log
// ----------------------------------------------------------------------

TEST(CausalSchema, RejectsBadCounterLines)
{
    const std::string header = "{\"causal_schema\":2}\n";
    const std::string span =
        R"({"id":4294967297,"parent":0,"trace":4294967297,"node":0,)"
        R"("name":"nx.csend","start_ps":0,"end_ps":5})"
        "\n";
    const std::string counter =
        R"({"counter":"bus_util","node":3,"every_ps":20000000,)"
        R"("values":[0,0.25,1e-05]})"
        "\n";
    const std::string good = header + span + counter;
    ASSERT_TRUE(logValidates(good));
    EXPECT_TRUE(logValidates(header + counter)); // gauges without spans

    EXPECT_FALSE(logValidates(
        replaced(good, "\"counter\":\"bus_util\"", "\"counter\":\"\"")));
    EXPECT_FALSE(logValidates(
        replaced(good, "\"every_ps\":20000000", "\"every_ps\":0")));
    EXPECT_FALSE(logValidates(replaced(good, "0.25", "\"0.25\"")));
    EXPECT_FALSE(logValidates(
        replaced(good, "\"causal_schema\":2", "\"causal_schema\":1")));
}

// ----------------------------------------------------------------------
// The Chrome timeline drawn from a causal log
// ----------------------------------------------------------------------

TEST(ChromeFromLog, OneEventPerSpanOnItsNodeAndLayerTrack)
{
    // Two nodes, four layers, and a root leaf span of zero length;
    // then a node's gauge and a cluster-wide one.
    std::string path = writeLog("analyze_chrome.jsonl", R"({"causal_schema":2}
{"id":4294967297,"parent":0,"trace":4294967297,"node":0,"name":"nx.csend","start_ps":1000000,"end_ps":5500000}
{"id":4294967298,"parent":4294967297,"trace":4294967297,"node":0,"name":"vmmc.send","start_ps":1200000,"end_ps":2000123}
{"id":8589934593,"parent":4294967298,"trace":4294967297,"node":1,"name":"pkt.total","start_ps":1200000,"end_ps":4000001}
{"id":8589934594,"parent":8589934593,"trace":4294967297,"node":1,"name":"pkt.wire","start_ps":2000000,"end_ps":3000000}
{"id":8589934595,"parent":0,"trace":8589934595,"node":1,"name":"svm.twin","start_ps":7000000,"end_ps":7000000}
{"counter":"bus_util","node":1,"every_ps":2500000,"values":[0.5,0.125,2]}
{"counter":"mesh.links_busy","node":-1,"every_ps":2500000,"values":[3,0]}
)");
    causal_read::Log log;
    std::string err;
    ASSERT_TRUE(causal_read::load(path, log, &err)) << err;
    ASSERT_TRUE(causal_read::validate(log, &err)) << err;
    ASSERT_EQ(log.spans.size(), 5u);
    ASSERT_EQ(log.counters.size(), 2u);

    std::ostringstream out;
    causal_read::writeChrome(log, out);
    JsonValue doc;
    ASSERT_TRUE(parseJson(out.str(), doc, &err)) << err;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::map<double, std::string> trackNames;
    for (const JsonValue &e : events->array)
        if (e.find("ph")->str == "M" &&
            e.find("name")->str == "thread_name")
            trackNames[e.numberOr("tid", -1)] =
                e.find("args")->find("name")->str;

    std::map<std::uint64_t, int> drawn;
    for (const JsonValue &e : events->array) {
        if (e.find("ph")->str != "X")
            continue;
        const JsonValue *args = e.find("args");
        ASSERT_NE(args, nullptr);
        auto id = std::uint64_t(args->numberOr("span", 0));
        const causal_read::Span *s = log.byId(id);
        ASSERT_NE(s, nullptr) << id;
        ++drawn[id];
        EXPECT_EQ(e.find("name")->str, s->name);
        EXPECT_EQ(std::uint64_t(args->numberOr("parent", -1)), s->parent);
        EXPECT_EQ(std::uint64_t(args->numberOr("trace", -1)), s->trace);
        EXPECT_EQ(trackNames[e.numberOr("tid", -1)],
                  "node" + std::to_string(s->node) + " " + s->layer());
        EXPECT_NEAR(e.numberOr("ts", -1), double(s->startPs) * 1e-6,
                    1e-9);
        EXPECT_NEAR(e.numberOr("dur", -1), double(s->durationPs()) * 1e-6,
                    1e-9);
    }
    EXPECT_EQ(drawn.size(), log.spans.size());
    for (const auto &[id, n] : drawn)
        EXPECT_EQ(n, 1) << id;
    EXPECT_EQ(trackNames.size(), 4u); // node0 nx/vmmc, node1 pkt/svm

    // One counter event per sample, at every_ps, 2 every_ps, ...
    std::map<std::string, std::vector<std::pair<double, double>>> tracks;
    for (const JsonValue &e : events->array)
        if (e.find("ph")->str == "C")
            tracks[e.find("name")->str].emplace_back(
                e.numberOr("ts", -1), e.find("args")->numberOr("value", -1));
    using Samples = std::vector<std::pair<double, double>>;
    EXPECT_EQ(tracks.size(), 2u);
    EXPECT_EQ(tracks["node1 bus_util"],
              (Samples{{2.5, 0.5}, {5.0, 0.125}, {7.5, 2.0}}));
    EXPECT_EQ(tracks["mesh.links_busy"], (Samples{{2.5, 3.0}, {5.0, 0.0}}));

    // The analyzer's table: samples, mean and peak per gauge.
    auto stats = causal_read::gaugeStats(log);
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(causal_read::gaugeLabel(stats[0].node, stats[0].name),
              "node1 bus_util");
    EXPECT_EQ(stats[0].samples, 3u);
    EXPECT_DOUBLE_EQ(stats[0].mean, 2.625 / 3);
    EXPECT_EQ(stats[0].peak, 2.0);
    EXPECT_EQ(causal_read::gaugeLabel(stats[1].node, stats[1].name),
              "mesh.links_busy");
    EXPECT_EQ(stats[1].mean, 1.5);
    EXPECT_EQ(stats[1].peak, 3.0);
    std::remove(path.c_str());
}
