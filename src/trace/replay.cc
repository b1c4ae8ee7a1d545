#include "trace/replay.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace adyna::trace {

namespace {

constexpr const char *kMagic = "adyna-trace";
constexpr int kVersion = 1;

} // namespace

void
saveTrace(std::ostream &os, const std::vector<BatchRouting> &batches)
{
    os << kMagic << " v" << kVersion << ' ' << batches.size() << '\n';
    for (std::size_t b = 0; b < batches.size(); ++b) {
        os << "batch " << b << '\n';
        for (const auto &[sw, oc] : batches[b].outcomes) {
            os << "switch " << sw << " before " << oc.activeBefore
               << " after " << oc.activeAfter << " counts";
            for (std::int64_t c : oc.branchCounts)
                os << ' ' << c;
            os << '\n';
        }
    }
}

void
saveTraceFile(const std::string &path,
              const std::vector<BatchRouting> &batches)
{
    std::ofstream os(path);
    if (!os)
        ADYNA_FATAL("cannot open trace file for writing: ", path);
    saveTrace(os, batches);
}

std::vector<BatchRouting>
loadTrace(std::istream &is)
{
    std::string magic, version;
    std::size_t count = 0;
    if (!(is >> magic >> version >> count) || magic != kMagic ||
        version != "v1")
        ADYNA_FATAL("not an adyna-trace v1 stream");

    std::vector<BatchRouting> out;
    out.reserve(count);
    std::string tok;
    while (is >> tok) {
        if (tok == "batch") {
            std::size_t idx = 0;
            if (!(is >> idx))
                ADYNA_FATAL("malformed batch header");
            if (idx != out.size())
                ADYNA_FATAL("batch indices out of order: got ", idx,
                            ", expected ", out.size());
            out.emplace_back();
        } else if (tok == "switch") {
            if (out.empty())
                ADYNA_FATAL("switch record before any batch");
            OpId sw = kInvalidOp;
            SwitchOutcome oc;
            std::string kw;
            if (!(is >> sw >> kw) || kw != "before" ||
                !(is >> oc.activeBefore) || !(is >> kw) ||
                kw != "after" || !(is >> oc.activeAfter) ||
                !(is >> kw) || kw != "counts")
                ADYNA_FATAL("malformed switch record");
            // Counts run to the end of the line.
            std::string rest;
            std::getline(is, rest);
            std::istringstream cs(rest);
            std::int64_t c;
            while (cs >> c)
                oc.branchCounts.push_back(c);
            if (oc.branchCounts.empty())
                ADYNA_FATAL("switch record without branch counts");
            // Records are kept in ascending switch id whatever order
            // the file lists them in; a repeated switch overwrites.
            auto &outcomes = out.back().outcomes;
            const auto at = std::lower_bound(
                outcomes.begin(), outcomes.end(), sw,
                [](const auto &entry, OpId id) {
                    return entry.first < id;
                });
            if (at != outcomes.end() && at->first == sw)
                at->second = std::move(oc);
            else
                outcomes.emplace(at, sw, std::move(oc));
        } else {
            ADYNA_FATAL("unexpected token in trace: '", tok, "'");
        }
    }
    if (out.size() != count)
        ADYNA_FATAL("trace declares ", count, " batches but holds ",
                    out.size());
    return out;
}

std::vector<BatchRouting>
loadTraceFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        ADYNA_FATAL("cannot open trace file: ", path);
    return loadTrace(is);
}

std::vector<BatchRouting>
captureTrace(TraceGenerator &gen, int batches)
{
    std::vector<BatchRouting> out;
    out.reserve(static_cast<std::size_t>(batches));
    for (int b = 0; b < batches; ++b)
        out.push_back(gen.next());
    return out;
}

} // namespace adyna::trace
