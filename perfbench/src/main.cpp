// perfbench — runs one workload of the repository benchmark and prints its
// metrics; the last line of standard output is the result JSON. Usually
// started through run.py, which builds it first:
//
//   perfbench --workload tune_sweep --seed 0 --seconds 20 --trace 0
//             [--trace-out FILE]
//
// Exit code 0 when every output verified, 1 when a check failed, 2 on a
// usage error.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload {tune_sweep|cast_aware|service} --seed N "
                 "--seconds S --trace {0|1} [--trace-out FILE]\n",
                 why);
    return 2;
}

bool parse_number(const char* text, double& out) {
    char* end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0';
}

} // namespace

int main(int argc, char** argv) {
    perfbench::RunConfig config;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) return usage("missing value after a flag");
        const char* value = argv[++i];
        double number = 0.0;
        if (flag == "--workload") {
            config.workload = value;
            have_workload = true;
        } else if (flag == "--trace-out") {
            config.trace_out = value;
        } else if (!parse_number(value, number)) {
            return usage("flag value is not a number");
        } else if (flag == "--seed") {
            if (!(number >= 0 && number < 1e15)) return usage("--seed must be a non-negative integer");
            config.seed = static_cast<std::uint64_t>(number);
        } else if (flag == "--seconds") {
            if (!(number > 0 && number <= 600)) return usage("--seconds must be in (0, 600]");
            config.seconds = number;
        } else if (flag == "--trace") {
            config.trace = number != 0.0;
        } else {
            return usage("unknown flag");
        }
    }
    if (!have_workload) return usage("--workload is required");

    // Freed heap memory stays in the process: no block is served by its own
    // mmap below 32 MB, and the heap top is never trimmed. Otherwise every
    // trace or cache the library frees and allocates again is fresh pages
    // from the kernel, and on a shared host the cost of faulting and zeroing
    // them (a tenth of a cast_aware round) varies from minute to minute.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    const perfbench::RunOutcome out = perfbench::run_workload(config);
    for (const std::string& note : out.notes) std::cout << note << '\n';
    for (const std::string& problem : out.problems) std::cout << "CHECK FAILED: " << problem << '\n';
    std::cout << out.json_line() << std::endl;
    return out.correct ? 0 : 1;
}
