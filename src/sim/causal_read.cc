#include "sim/causal_read.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "sim/json.hh"
#include "sim/json_in.hh"
#include "sim/logging.hh"

namespace shrimp::causal_read
{

namespace
{

bool
fail(std::string *err, std::string msg)
{
    if (err)
        *err = std::move(msg);
    return false;
}

/** Field @p key as a u64; 0 when absent, negative or too large. */
std::uint64_t
u64Of(const JsonValue &v, const char *key)
{
    const JsonValue *f = v.find(key);
    return f && f->isNumber() && f->number >= 0 && f->number < 0x1p64
               ? std::uint64_t(f->number)
               : 0;
}

/** @p ps as microseconds to the picosecond ("123.456789"). */
std::string
usText(std::uint64_t ps)
{
    return strfmt("%llu.%06llu", (unsigned long long)(ps / 1000000),
                  (unsigned long long)(ps % 1000000));
}

} // anonymous namespace

std::string
Span::layer() const
{
    std::size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

std::string
gaugeLabel(int node, const std::string &name)
{
    return node < 0 ? name : strfmt("node%d %s", node, name.c_str());
}

const Span *
Log::byId(std::uint64_t id) const
{
    auto it = idIndex.find(id);
    return it == idIndex.end() ? nullptr : &spans[it->second];
}

const std::vector<std::size_t> &
Log::childrenOf(std::uint64_t id) const
{
    auto it = childIndex.find(id);
    return it == childIndex.end() ? noChildren : it->second;
}

void
Log::reindex()
{
    idIndex.clear();
    childIndex.clear();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        idIndex.emplace(spans[i].id, i);
        if (spans[i].parent)
            childIndex[spans[i].parent].push_back(i);
    }
}

bool
load(const std::string &path, Log &out, std::string *err)
{
    std::ifstream in(path);
    if (!in)
        return fail(err, "cannot open '" + path + "'");

    out.spans.clear();
    out.counters.clear();
    std::string line;
    std::size_t lineno = 0;
    bool saw_header = false;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonValue v;
        std::string jerr;
        if (!parseJson(line, v, &jerr))
            return fail(err, strfmt("%s:%zu: %s", path.c_str(), lineno,
                                    jerr.c_str()));
        if (!saw_header) {
            const JsonValue *schema = v.find("causal_schema");
            if (!schema || !schema->isNumber() || schema->number != 2)
                return fail(err,
                            path + ": missing causal_schema:2 header");
            saw_header = true;
            continue;
        }
        if (const JsonValue *name = v.find("counter")) {
            Counter c;
            if (name->isString())
                c.name = name->str;
            c.node = int(v.numberOr("node", -1));
            c.everyPs = u64Of(v, "every_ps");
            const JsonValue *values = v.find("values");
            if (!values || !values->isArray())
                return fail(err, strfmt("%s:%zu: counter without values",
                                        path.c_str(), lineno));
            for (const JsonValue &x : values->array) {
                if (!x.isNumber())
                    return fail(err,
                                strfmt("%s:%zu: non-numeric counter value",
                                       path.c_str(), lineno));
                c.values.push_back(x.number);
            }
            out.counters.push_back(std::move(c));
            continue;
        }
        Span s;
        s.id = u64Of(v, "id");
        s.parent = u64Of(v, "parent");
        s.trace = u64Of(v, "trace");
        s.node = int(v.numberOr("node", -1));
        if (const JsonValue *n = v.find("name"); n && n->isString())
            s.name = n->str;
        s.startPs = u64Of(v, "start_ps");
        s.endPs = u64Of(v, "end_ps");
        if (s.id == 0)
            return fail(err, strfmt("%s:%zu: span without id",
                                    path.c_str(), lineno));
        out.spans.push_back(std::move(s));
    }
    if (!saw_header)
        return fail(err, path + ": empty causal log");
    out.reindex();
    return true;
}

bool
validate(const Log &log, std::string *err)
{
    for (const Span &s : log.spans) {
        const Span *self = log.byId(s.id);
        if (self != &s)
            return fail(err, strfmt("duplicate span id %llu",
                                    (unsigned long long)s.id));
        if (s.endPs < s.startPs)
            return fail(err,
                        strfmt("span %llu ends before it starts",
                               (unsigned long long)s.id));
        if (!s.parent) {
            if (s.trace != s.id)
                return fail(
                    err,
                    strfmt("root span %llu has trace %llu (not itself)",
                           (unsigned long long)s.id,
                           (unsigned long long)s.trace));
            continue;
        }
        const Span *p = log.byId(s.parent);
        if (!p)
            return fail(err,
                        strfmt("span %llu: parent %llu not in log",
                               (unsigned long long)s.id,
                               (unsigned long long)s.parent));
        if (s.trace != p->trace)
            return fail(err,
                        strfmt("span %llu: trace %llu differs from "
                               "parent's %llu",
                               (unsigned long long)s.id,
                               (unsigned long long)s.trace,
                               (unsigned long long)p->trace));
        if (s.startPs < p->startPs)
            return fail(err,
                        strfmt("span %llu starts before its parent "
                               "%llu",
                               (unsigned long long)s.id,
                               (unsigned long long)s.parent));
    }
    for (const Counter &c : log.counters) {
        if (c.name.empty())
            return fail(err, "counter without a name");
        if (c.node < -1)
            return fail(err, strfmt("counter %s on node %d",
                                    c.name.c_str(), c.node));
        if (c.everyPs == 0)
            return fail(err, strfmt("counter %s: every_ps is not above 0",
                                    gaugeLabel(c.node, c.name).c_str()));
    }
    return true;
}

bool
criticalPath(const Log &log, std::uint64_t root_id, CriticalPath &out,
             std::string *err)
{
    const Span *root = log.byId(root_id);
    if (!root)
        return fail(err, strfmt("no span %llu in log",
                                (unsigned long long)root_id));

    out = CriticalPath{};
    out.rootId = root->id;
    out.rootName = root->name;
    out.startPs = root->startPs;
    out.endPs = root->endPs;
    out.totalPs = root->durationPs();

    // Collect the root's subtree with depths (BFS).
    struct Node
    {
        const Span *span;
        int depth;
    };
    std::vector<Node> subtree;
    std::vector<std::pair<std::uint64_t, int>> work{{root->id, 0}};
    while (!work.empty()) {
        auto [id, depth] = work.back();
        work.pop_back();
        const Span *s = log.byId(id);
        subtree.push_back(Node{s, depth});
        for (std::size_t ci : log.childrenOf(id))
            work.emplace_back(log.spans[ci].id, depth + 1);
    }

    // Segment [root.start, root.end] at every span boundary that
    // falls inside it, then attribute each segment to the deepest
    // covering span (ties: the latest-started, then highest id, so
    // the choice is deterministic). The segments partition the root
    // interval exactly.
    std::vector<std::uint64_t> cuts{root->startPs, root->endPs};
    for (const Node &n : subtree) {
        if (n.span->startPs > root->startPs &&
            n.span->startPs < root->endPs)
            cuts.push_back(n.span->startPs);
        if (n.span->endPs > root->startPs &&
            n.span->endPs < root->endPs)
            cuts.push_back(n.span->endPs);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::map<std::string, Attribution> byName;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        std::uint64_t lo = cuts[i], hi = cuts[i + 1];
        if (lo == hi)
            continue;
        const Node *best = nullptr;
        for (const Node &n : subtree) {
            if (n.span->startPs > lo || n.span->endPs < hi)
                continue; // does not cover the whole segment
            if (!best || n.depth > best->depth ||
                (n.depth == best->depth &&
                 (n.span->startPs > best->span->startPs ||
                  (n.span->startPs == best->span->startPs &&
                   n.span->id > best->span->id))))
                best = &n;
        }
        // The root always covers, so best is never null.
        Attribution &a = byName[best->span->name];
        a.name = best->span->name;
        a.ps += hi - lo;
        ++a.segments;
    }

    out.stages.reserve(byName.size());
    for (auto &kv : byName)
        out.stages.push_back(std::move(kv.second));
    std::sort(out.stages.begin(), out.stages.end(),
              [](const Attribution &a, const Attribution &b) {
                  return a.ps != b.ps ? a.ps > b.ps : a.name < b.name;
              });
    return true;
}

const Span *
findRoot(const Log &log, const std::string &name_substr)
{
    const Span *best = nullptr;
    for (const Span &s : log.spans) {
        if (name_substr.empty()) {
            if (s.parent)
                continue; // default mode considers trace roots only
        } else if (s.name.find(name_substr) == std::string::npos) {
            continue;
        }
        if (!best || s.durationPs() > best->durationPs() ||
            (s.durationPs() == best->durationPs() && s.id < best->id))
            best = &s;
    }
    return best;
}

std::vector<NameStat>
packetStageStats(const Log &log)
{
    std::map<std::string, std::pair<std::uint64_t, double>> acc;
    for (const Span &s : log.spans) {
        if (s.name.rfind("pkt.", 0) != 0)
            continue;
        auto &a = acc[s.name];
        ++a.first;
        a.second += double(s.durationPs());
    }
    std::vector<NameStat> out;
    out.reserve(acc.size());
    for (const auto &kv : acc)
        out.push_back(NameStat{kv.first, kv.second.first,
                               kv.second.second /
                                   double(kv.second.first)});
    return out;
}

std::vector<GaugeStat>
gaugeStats(const Log &log)
{
    std::vector<GaugeStat> out;
    std::vector<double> sums;
    std::map<std::pair<int, std::string>, std::size_t> index;
    for (const Counter &c : log.counters) {
        auto [it, fresh] =
            index.emplace(std::make_pair(c.node, c.name), out.size());
        if (fresh) {
            out.push_back(GaugeStat{c.node, c.name});
            sums.push_back(0.0);
        }
        GaugeStat &g = out[it->second];
        for (double x : c.values) {
            sums[it->second] += x;
            if (g.samples == 0 || x > g.peak)
                g.peak = x;
            ++g.samples;
        }
    }
    for (std::size_t i = 0; i < out.size(); ++i)
        if (out[i].samples)
            out[i].mean = sums[i] / double(out[i].samples);
    return out;
}

void
writeChrome(const Log &log, std::ostream &out)
{
    // Number the tracks in (node, layer) order, so the timeline lists
    // each node's layers together.
    std::map<std::pair<int, std::string>, int> tracks;
    for (const Span &s : log.spans)
        tracks.emplace(std::make_pair(s.node, s.layer()), 0);
    int tid = 0;
    for (auto &kv : tracks)
        kv.second = tid++;

    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
           "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":\"shrimp\"}}";
    for (const auto &[key, id] : tracks)
        out << strfmt(",\n{\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
                      "\"name\":\"thread_name\","
                      "\"args\":{\"name\":\"node%d %s\"}}",
                      id, key.first,
                      JsonWriter::escaped(key.second).c_str());
    for (const Span &s : log.spans)
        out << strfmt(",\n{\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                      "\"ts\":%s,\"dur\":%s,\"name\":\"%s\","
                      "\"args\":{\"span\":%llu,\"parent\":%llu,"
                      "\"trace\":%llu}}",
                      tracks.at({s.node, s.layer()}),
                      usText(s.startPs).c_str(),
                      usText(s.durationPs()).c_str(),
                      JsonWriter::escaped(s.name).c_str(),
                      (unsigned long long)s.id,
                      (unsigned long long)s.parent,
                      (unsigned long long)s.trace);
    for (const Counter &c : log.counters) {
        std::string name = JsonWriter::escaped(gaugeLabel(c.node, c.name));
        for (std::size_t i = 0; i < c.values.size(); ++i)
            out << strfmt(",\n{\"ph\":\"C\",\"pid\":0,\"name\":\"%s\","
                          "\"ts\":%s,\"args\":{\"value\":%s}}",
                          name.c_str(),
                          usText(c.everyPs * (i + 1)).c_str(),
                          JsonWriter::numberText(c.values[i]).c_str());
    }
    out << "\n]}\n";
}

} // namespace shrimp::causal_read
