#include "capture.hpp"

#include <fstream>

#if __has_include("sim/trace_io.hpp")
#include "sim/trace_io.hpp"
#else
#include "trace/trace_io.hpp"
#endif

namespace cop::perfbench {

std::vector<std::string>
captureCoreTraces(const WorkloadProfile &profile, unsigned cores, u64 epochs,
                  u64 seed_salt, const std::string &prefix)
{
    std::vector<std::string> paths;
    for (unsigned c = 0; c < cores; ++c) {
        paths.push_back(prefix + ".c" + std::to_string(c) + ".trace");
        std::ofstream out(paths.back(), std::ios::binary);
        if (!out)
            COP_FATAL("cannot write trace " + paths.back());
        // No content-cache slots: capture only draws the address stream.
        TraceGenerator gen(profile, c, seed_salt, 0);
        TraceWriter writer(out, epochs);
        for (u64 i = 0; i < epochs; ++i)
            writer.write(gen.next());
        writer.finish();
    }
    return paths;
}

} // namespace cop::perfbench
