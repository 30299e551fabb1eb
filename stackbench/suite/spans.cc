#include "suite/spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <ostream>

namespace stackbench
{

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Spans::Scope::Scope(Spans &spans, const char *name, std::uint64_t request)
{
    if (!spans.enabled_)
        return;
    spans_ = &spans;
    index_ = spans.spans_.size();
    Span span;
    span.name = name;
    span.id = std::uint32_t(index_ + 1);
    if (!spans.open_.empty()) {
        const Span &outer = spans.spans_[spans.open_.back()];
        span.parent = outer.id;
        if (request == 0)
            request = outer.request;
    }
    span.request = request;
    spans.open_.push_back(index_);
    span.start_ns = nowNs();
    spans.spans_.push_back(span);
}

Spans::Scope::~Scope()
{
    if (!spans_)
        return;
    spans_->spans_[index_].end_ns = nowNs();
    spans_->open_.pop_back();
}

std::vector<Spans::Layer>
Spans::layers() const
{
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent != 0)
            child_ns[s.parent - 1] += double(s.end_ns - s.start_ns);

    std::map<std::string, Layer> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        Layer &layer = by_name[s.name];
        layer.name = s.name;
        ++layer.count;
        const double wall = double(s.end_ns - s.start_ns);
        layer.total_ns += wall;
        layer.self_ns += wall - child_ns[i];
    }
    std::vector<Layer> out;
    for (auto &[name, layer] : by_name)
        out.push_back(layer);
    std::sort(out.begin(), out.end(), [](const Layer &a, const Layer &b) {
        return a.self_ns > b.self_ns;
    });
    return out;
}

void
Spans::writeChromeEvents(std::ostream &os, int pid,
                         const std::string &label) const
{
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":1,\"args\":{\"name\":\"" << label << "\"}}";
    const std::int64_t origin = spans_.empty() ? 0 : spans_[0].start_ns;
    char buf[320];
    for (const Span &s : spans_) {
        // ts/dur are microseconds; keep nanosecond precision.
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"%s\",\"cat\":\"stackbench\","
                      "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,"
                      "\"tid\":1,\"args\":{\"span\":%u,\"parent\":%u,"
                      "\"request\":%llu}}",
                      s.name, double(s.start_ns - origin) / 1e3,
                      double(s.end_ns - s.start_ns) / 1e3, pid, s.id,
                      s.parent, (unsigned long long)s.request);
        os << buf;
    }
}

double
Spans::nsPerSpan()
{
    constexpr int rounds = 20000;
    Spans probe;
    probe.enable();
    probe.spans_.reserve(2 * rounds);
    const std::int64_t start = nowNs();
    for (int i = 0; i < rounds; ++i) {
        Scope outer(probe, "outer");
        Scope inner(probe, "inner");
    }
    return double(nowNs() - start) / (2.0 * rounds);
}

} // namespace stackbench
