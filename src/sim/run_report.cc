#include "sim/run_report.hh"

#include <fstream>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace shrimp
{

namespace
{

void
writeAccount(JsonWriter &w, const TimeAccount &a)
{
    w.beginObject();
    for (std::size_t c = 0; c < std::size_t(TimeCategory::kCount); ++c)
        w.field(timeCategoryName(TimeCategory(c)),
                std::uint64_t(a.total(TimeCategory(c))));
    w.endObject();
}

void
writeAccount(JsonWriter &w, const std::string &key, const TimeAccount &a)
{
    w.beginObject(key);
    for (std::size_t c = 0; c < std::size_t(TimeCategory::kCount); ++c)
        w.field(timeCategoryName(TimeCategory(c)),
                std::uint64_t(a.total(TimeCategory(c))));
    w.endObject();
}

} // anonymous namespace

void
RunReport::writeJson(std::ostream &os, bool pretty) const
{
    JsonWriter w(os, pretty);
    w.beginObject();
    w.field("schema_version", kSchemaVersion);
    w.field("app", app);
    w.field("nprocs", nprocs);
    w.field("elapsed_ps", std::uint64_t(elapsed));
    w.field("elapsed_ms", toSeconds(elapsed) * 1e3);
    w.field("messages", messages);
    w.field("notifications", notifications);
    w.field("checksum", checksum);

    if (host.enabled) {
        w.beginObject("host");
        w.field("wall_seconds", host.wallSeconds);
        w.field("events", host.events);
        w.field("events_per_sec", host.eventsPerSec);
        w.field("user_seconds", host.userSeconds);
        w.field("sys_seconds", host.sysSeconds);
        w.field("max_rss_kb", host.maxRssKb);
        w.field("fiber_switches", host.fiberSwitches);
        w.field("fiber_stack_hwm_bytes", host.fiberStackHwmBytes);
        w.endObject();
    }

    if (faults.enabled) {
        w.beginObject("faults");
        w.field("drops", faults.drops);
        w.field("outage_drops", faults.outageDrops);
        w.field("corruptions", faults.corruptions);
        w.field("retransmits", faults.retransmits);
        w.field("rto_fires", faults.rtoFires);
        w.field("dup_rx", faults.dupRx);
        w.field("acks", faults.acks);
        w.field("nacks", faults.nacks);
        w.endObject();
    }

    if (latency.enabled) {
        w.beginObject("latency_breakdown");
        w.beginArray("stages");
        for (const auto &s : latency.stages) {
            w.beginObject();
            w.field("stage", s.stage);
            w.field("count", s.count);
            w.field("mean_us", s.meanUs);
            w.field("p50_us", s.p50Us);
            w.field("p95_us", s.p95Us);
            w.field("p99_us", s.p99Us);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    w.beginObject("params");
    for (const auto &kv : params)
        w.field(kv.first, kv.second);
    w.endObject();

    w.beginObject("time_breakdown_ps");
    writeAccount(w, "combined", combined);
    w.beginArray("per_process");
    for (const auto &a : perProcess)
        writeAccount(w, a);
    w.endArray();
    w.endObject();

    w.beginObject("stats");
    stats.writeJson(w);
    w.endObject();

    w.endObject();
    os.flush();
}

std::string
RunReport::toJson(bool pretty) const
{
    std::ostringstream ss;
    writeJson(ss, pretty);
    return ss.str();
}

void
RunReport::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("RunReport: cannot open '%s' for writing", path.c_str());
    writeJson(out, /*pretty=*/true);
    out << "\n";
    if (!out)
        fatal("RunReport: write to '%s' failed", path.c_str());
}

} // namespace shrimp
