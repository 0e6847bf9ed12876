#include "sim/report_schema.hh"

#include "sim/json_in.hh"
#include "sim/logging.hh"
#include "sim/run_report.hh"

namespace shrimp
{

namespace
{

bool
failWith(std::string *err, const std::string &what)
{
    if (err)
        *err = what;
    return false;
}

/** Fetch @p key from @p obj with kind @p kind, or explain why not. */
const JsonValue *
require(const JsonValue &obj, const char *key, JsonValue::Kind kind,
        std::string *err)
{
    const JsonValue *v = obj.find(key);
    if (!v) {
        failWith(err, strfmt("missing required field '%s'", key));
        return nullptr;
    }
    if (v->kind != kind) {
        failWith(err, strfmt("field '%s' has the wrong type", key));
        return nullptr;
    }
    return v;
}

bool
requireNumbers(const JsonValue &obj, const char *context,
               std::initializer_list<const char *> keys,
               std::string *err)
{
    for (const char *k : keys) {
        const JsonValue *v = obj.find(k);
        if (!v || !v->isNumber())
            return failWith(
                err, strfmt("%s: '%s' missing or non-numeric",
                            context, k));
    }
    return true;
}

bool
validateStats(const JsonValue &stats, std::string *err)
{
    const JsonValue *counters =
        require(stats, "counters", JsonValue::Kind::Object, err);
    if (!counters)
        return false;
    for (const auto &kv : counters->object)
        if (!kv.second.isNumber())
            return failWith(err, strfmt("counter '%s' non-numeric",
                                        kv.first.c_str()));

    const JsonValue *accs =
        require(stats, "accumulators", JsonValue::Kind::Object, err);
    if (!accs)
        return false;
    for (const auto &kv : accs->object) {
        if (!kv.second.isObject() ||
            !requireNumbers(kv.second, kv.first.c_str(),
                            {"count", "sum", "mean", "min", "max"},
                            err))
            return false;
    }

    const JsonValue *hists =
        require(stats, "histograms", JsonValue::Kind::Object, err);
    if (!hists)
        return false;
    for (const auto &kv : hists->object) {
        const JsonValue &h = kv.second;
        if (!h.isObject() ||
            !requireNumbers(h, kv.first.c_str(),
                            {"count", "mean", "min", "max", "p50",
                             "p95", "p99", "lo", "hi", "underflow",
                             "overflow"},
                            err))
            return false;
        const JsonValue *scale = h.find("scale");
        if (!scale || !scale->isString() ||
            (scale->str != "linear" && scale->str != "log"))
            return failWith(
                err, strfmt("histogram '%s': bad 'scale'",
                            kv.first.c_str()));
        const JsonValue *buckets = h.find("buckets");
        if (!buckets || !buckets->isArray())
            return failWith(
                err, strfmt("histogram '%s': missing 'buckets'",
                            kv.first.c_str()));
        for (const auto &b : buckets->array)
            if (!b.isNumber())
                return failWith(
                    err, strfmt("histogram '%s': non-numeric bucket",
                                kv.first.c_str()));
    }

    const JsonValue *scalars =
        require(stats, "scalars", JsonValue::Kind::Object, err);
    if (!scalars)
        return false;
    for (const auto &kv : scalars->object)
        if (!kv.second.isNumber())
            return failWith(err, strfmt("scalar '%s' non-numeric",
                                        kv.first.c_str()));
    return true;
}

bool
validateLatencyBreakdown(const JsonValue &lb, std::string *err)
{
    const JsonValue *stages =
        require(lb, "stages", JsonValue::Kind::Array, err);
    if (!stages)
        return false;
    bool saw_total = false;
    for (const auto &s : stages->array) {
        if (!s.isObject())
            return failWith(err, "latency_breakdown stage not an "
                                 "object");
        const JsonValue *name =
            require(s, "stage", JsonValue::Kind::String, err);
        if (!name)
            return false;
        if (!requireNumbers(s, name->str.c_str(),
                            {"count", "mean_us", "p50_us", "p95_us",
                             "p99_us"},
                            err))
            return false;
        saw_total = saw_total || name->str == "total";
    }
    if (!saw_total)
        return failWith(err,
                        "latency_breakdown lacks the 'total' stage");
    return true;
}

} // anonymous namespace

bool
validateReport(const JsonValue &doc, std::string *err)
{
    if (!doc.isObject())
        return failWith(err, "report is not a JSON object");

    const JsonValue *ver =
        require(doc, "schema_version", JsonValue::Kind::Number, err);
    if (!ver)
        return false;
    if (int(ver->number) != RunReport::kSchemaVersion ||
        ver->number != double(int(ver->number)))
        return failWith(
            err, strfmt("schema_version %g != expected %d",
                        ver->number, RunReport::kSchemaVersion));

    if (!require(doc, "app", JsonValue::Kind::String, err))
        return false;
    if (!requireNumbers(doc, "report",
                        {"nprocs", "elapsed_ps", "elapsed_ms",
                         "messages", "notifications", "checksum"},
                        err))
        return false;

    const JsonValue *params =
        require(doc, "params", JsonValue::Kind::Object, err);
    if (!params)
        return false;
    // Params are free-form strings, but the ones tools consume get
    // shape checks. 'mesh' (topology sweep axis) must be "WxH" with
    // two positive decimal integers when present.
    if (const JsonValue *mesh = params->find("mesh")) {
        bool ok = mesh->isString();
        if (ok) {
            const std::string &s = mesh->str;
            auto x = s.find('x');
            ok = x != std::string::npos && x > 0 && x + 1 < s.size() &&
                 s.find('x', x + 1) == std::string::npos &&
                 s.find_first_not_of("0123456789x") ==
                     std::string::npos &&
                 s[0] != '0' && s[x + 1] != '0';
        }
        if (!ok)
            return failWith(err, "params.mesh is not a WxH mesh "
                                 "spec");
    }

    const JsonValue *tb = require(doc, "time_breakdown_ps",
                                  JsonValue::Kind::Object, err);
    if (!tb)
        return false;
    if (!require(*tb, "combined", JsonValue::Kind::Object, err) ||
        !require(*tb, "per_process", JsonValue::Kind::Array, err))
        return false;

    const JsonValue *stats =
        require(doc, "stats", JsonValue::Kind::Object, err);
    if (!stats || !validateStats(*stats, err))
        return false;

    if (const JsonValue *host = doc.find("host")) {
        if (!host->isObject() ||
            !requireNumbers(*host, "host",
                            {"wall_seconds", "events",
                             "events_per_sec"},
                            err))
            return false;
    }
    if (const JsonValue *faults = doc.find("faults")) {
        if (!faults->isObject() ||
            !requireNumbers(*faults, "faults",
                            {"drops", "outage_drops", "corruptions",
                             "retransmits", "rto_fires", "dup_rx",
                             "acks", "nacks"},
                            err))
            return false;
    }
    if (const JsonValue *lb = doc.find("latency_breakdown")) {
        if (!lb->isObject() || !validateLatencyBreakdown(*lb, err))
            return false;
    }
    return true;
}

bool
validateMetricsJsonl(std::istream &in, std::string *err)
{
    std::string line;
    std::size_t lineno = 0;

    // Header line.
    if (!std::getline(in, line))
        return failWith(err, "metrics file is empty");
    ++lineno;
    JsonValue header;
    std::string perr;
    if (!parseJson(line, header, &perr))
        return failWith(err, strfmt("line 1: %s", perr.c_str()));
    const JsonValue *schema =
        require(header, "metrics_schema", JsonValue::Kind::Number,
                err);
    if (!schema)
        return false;
    if (int(schema->number) != 1)
        return failWith(err, strfmt("metrics_schema %g != expected 1",
                                    schema->number));
    if (!require(header, "app", JsonValue::Kind::String, err) ||
        !require(header, "interval_us", JsonValue::Kind::Number,
                 err) ||
        !require(header, "samples", JsonValue::Kind::Number, err))
        return false;
    const JsonValue *columns =
        require(header, "columns", JsonValue::Kind::Array, err);
    if (!columns)
        return false;
    for (const auto &c : columns->array)
        if (!c.isString())
            return failWith(err, "non-string column name");
    std::size_t ncols = columns->array.size();
    auto expected = std::size_t(header.numberOr("samples", 0));

    std::size_t rows = 0;
    double last_t = -1.0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        if (line[0] == '{' && line.find("\"metrics_schema\"") !=
                                  std::string::npos) {
            // A concatenated series (sweep output): validate each
            // header block's rows against its own column count.
            JsonValue h2;
            if (!parseJson(line, h2, &perr))
                return failWith(err, strfmt("line %zu: %s", lineno,
                                            perr.c_str()));
            const JsonValue *c2 =
                require(h2, "columns", JsonValue::Kind::Array, err);
            if (!c2)
                return false;
            if (rows != expected)
                return failWith(
                    err,
                    strfmt("line %zu: previous series had %zu rows, "
                           "header promised %zu",
                           lineno, rows, expected));
            ncols = c2->array.size();
            expected = std::size_t(h2.numberOr("samples", 0));
            rows = 0;
            last_t = -1.0;
            continue;
        }
        JsonValue row;
        if (!parseJson(line, row, &perr))
            return failWith(err, strfmt("line %zu: %s", lineno,
                                        perr.c_str()));
        const JsonValue *t =
            require(row, "t_us", JsonValue::Kind::Number, err);
        if (!t)
            return failWith(err, strfmt("line %zu: bad t_us", lineno));
        if (t->number <= last_t)
            return failWith(
                err, strfmt("line %zu: t_us not increasing", lineno));
        last_t = t->number;
        const JsonValue *v =
            require(row, "v", JsonValue::Kind::Array, err);
        if (!v)
            return failWith(err, strfmt("line %zu: bad v", lineno));
        if (v->array.size() != ncols)
            return failWith(
                err, strfmt("line %zu: %zu values for %zu columns",
                            lineno, v->array.size(), ncols));
        for (const auto &x : v->array)
            if (!x.isNumber())
                return failWith(
                    err,
                    strfmt("line %zu: non-numeric value", lineno));
        ++rows;
    }
    if (rows != expected)
        return failWith(err,
                        strfmt("series has %zu rows, header promised "
                               "%zu",
                               rows, expected));
    return true;
}

} // namespace shrimp
