// perfbench: the repository benchmark's binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints one JSON line: the host record, the output-check verdict and every
// metric with its unit and sample count. perfbench/run.py builds this binary,
// runs it and turns that line into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload flstore_read_mix|geo_replicate "
               "--seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n");
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ResultJson(const Options& o, const Outcome& r) {
  std::string host = perfbench::HostRecordJson(o);
  // HostRecordJson is a whole object {"host": {...}}; splice its member in.
  std::string json = host.substr(0, host.size() - 1);
  json += ", \"correct\": ";
  json += r.violations.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"violations\": [";
  for (size_t i = 0; i < r.violations.size(); ++i) {
    json += (i ? ", " : "") + JsonString(r.violations[i]);
  }
  json += "], \"late_phases\": [";
  for (size_t i = 0; i < r.late_phases.size(); ++i) {
    json += (i ? ", " : "") + JsonString(r.late_phases[i]);
  }
  json += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            value + ", \"unit\": " + JsonString(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  return json + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || o.work_dir.empty() || !(o.seconds > 0)) return Usage();
  chariots::SetLogLevel(chariots::LogLevel::kError);

  Outcome r;
  if (o.workload == "flstore_read_mix") {
    perfbench::RunFlstoreReadMix(o, &r);
  } else if (o.workload == "geo_replicate") {
    perfbench::RunGeoReplicate(o, &r);
  } else {
    return Usage();
  }
  std::printf("%s\n", ResultJson(o, r).c_str());
  std::fflush(stdout);
  return r.violations.empty() ? 0 : 1;
}
