// Counter reporting: dump registered counters as an aligned table or CSV —
// gran's equivalent of HPX's --hpx:print-counter command-line interface.
#pragma once

#include <iosfwd>
#include <string>

#include "perf/counters.hpp"

namespace gran::perf {

// Writes "counter,value" CSV rows for every counter under `prefix`.
void dump_csv(std::ostream& os, const std::string& prefix = "/");

// Writes an aligned human-readable table (value + description).
void dump_table(std::ostream& os, const std::string& prefix = "/");

}  // namespace gran::perf
