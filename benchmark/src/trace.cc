#include <fstream>
#include <stdexcept>

#include "bench.h"

namespace mantbench {

int64_t
Tracer::ns(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                origin_)
        .count();
}

int64_t
Tracer::add(std::string name, Clock::time_point start,
            Clock::time_point end, int64_t parent, int64_t request)
{
    spans_.push_back({std::move(name), ns(start), ns(end), parent,
                      request});
    return static_cast<int64_t>(spans_.size()) - 1;
}

void
Tracer::end(int64_t span)
{
    spans_[static_cast<size_t>(span)].endNs = ns(Clock::now());
}

void
Tracer::writeJsonl(const std::string &path) const
{
    std::ofstream f(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        f << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
    if (!f.flush())
        throw std::runtime_error("cannot write span file " + path);
}

} // namespace mantbench
