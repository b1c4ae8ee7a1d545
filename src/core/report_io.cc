#include "core/report_io.hh"

#include <type_traits>

#include "common/json.hh"

namespace adyna::core {

namespace {

/**
 * RunReport's exported fields in output order: the one list behind
 * the JSON and the CSV. The energy breakdown is a group: a nested
 * "energy_pj" object in JSON, "energy_<part>_pj" columns in CSV.
 */
template <typename Out>
void
forEachField(const RunReport &r, Out &out)
{
    out.field("workload", r.workload);
    out.field("design", r.design);
    out.field("cycles", r.cycles);
    out.field("time_ms", r.timeMs);
    out.field("batches_per_second", r.batchesPerSecond);
    out.field("pe_utilization", r.peUtilization);
    out.field("hbm_utilization", r.hbmUtilization);
    out.field("useful_macs", r.usefulMacs);
    out.field("issued_macs", r.issuedMacs);
    out.field("stored_kernels", r.storedKernels);
    out.field("segments", r.segments);
    out.field("reconfigurations", r.reconfigurations);
    out.beginGroup("energy", "pj");
    out.field("pe", r.energy.pe);
    out.field("sram", r.energy.sram);
    out.field("hbm", r.energy.hbm);
    out.field("noc", r.energy.noc);
    out.field("total", r.energy.total());
    out.endGroup();
}

/** forEachField into a Compact JSON object. */
struct JsonFields
{
    JsonWriter &w;

    template <typename T>
    void field(std::string_view name, const T &v)
    {
        w.field(name, v);
    }

    void beginGroup(std::string_view name, std::string_view unit)
    {
        w.key(std::string(name) + "_" + std::string(unit))
            .beginObject(JsonLayout::Compact);
    }

    void endGroup() { w.endObject(); }
};

/** forEachField as one CSV line: the column names (@p Header), or
 * one report's values (names as written, numbers as in the JSON). */
template <bool Header>
struct CsvLine
{
    std::string out;
    std::string_view sep;
    std::string prefix;
    std::string suffix;

    template <typename T>
    void field(std::string_view name, const T &v)
    {
        out += sep;
        sep = ",";
        if constexpr (Header)
            out += prefix + std::string(name) + suffix;
        else if constexpr (std::is_same_v<T, std::string>)
            out += v;
        else
            appendNumber(out, v);
    }

    void beginGroup(std::string_view name, std::string_view unit)
    {
        prefix = std::string(name) + "_";
        suffix = "_" + std::string(unit);
    }

    void endGroup() { prefix = suffix = ""; }
};

void
writeReport(JsonWriter &w, const RunReport &r, bool include_batches)
{
    JsonFields fields{w.beginObject(JsonLayout::Compact)};
    forEachField(r, fields);
    if (include_batches) {
        w.key("batch_ends").beginArray(JsonLayout::Compact);
        for (Tick end : r.batchEnds)
            w.value(end);
        w.endArray();
    }
    w.endObject();
}

} // namespace

std::string
toJson(const RunReport &report, bool include_batches)
{
    JsonWriter w;
    writeReport(w, report, include_batches);
    return w.take();
}

std::string
toJson(const std::vector<RunReport> &reports, bool include_batches)
{
    JsonWriter w;
    w.beginArray(JsonLayout::Compact);
    for (const RunReport &r : reports)
        writeReport(w, r, include_batches);
    return w.endArray().take();
}

std::string
toCsv(const std::vector<RunReport> &reports)
{
    CsvLine<true> header;
    forEachField(RunReport{}, header);
    std::string out = header.out + '\n';
    for (const RunReport &r : reports) {
        CsvLine<false> row;
        forEachField(r, row);
        out += row.out + '\n';
    }
    return out;
}

} // namespace adyna::core
