// BenchJson: the machine-readable profile every AID bench writes beside
// its stdout tables.
//
// Each bench_<name> binary collects its headline numbers into a BenchJson
// and writes BENCH_<name>.json into the working directory on exit, so CI
// and dashboards track bench results across commits without scraping the
// human tables. The document is flat by design:
//
//   {"bench":"ablation","metrics":{"fig5c_b4_aid_rounds":6.0,...},
//    "telemetry":{...}}          // telemetry block only when attached
//
// Metrics keep insertion order. Attach() embeds a session's full telemetry
// snapshot (TelemetryJson) so a bench run doubles as an exportable run
// profile. Header-only; benches are standalone binaries sharing only
// headers (this one and bench_transport.h).

#ifndef AID_BENCH_BENCH_JSON_H_
#define AID_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/telemetry.h"

namespace aid::bench {

class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  /// Records one headline number (duplicate keys are written as-is; use
  /// distinct names).
  void Metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Embeds a full telemetry snapshot under "telemetry" (last call wins).
  void Attach(const TelemetrySnapshot& snapshot) {
    telemetry_json_ = TelemetryJson(snapshot);
  }

  /// The document, rendered.
  std::string ToJson() const {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench").String(name_);
    w.Key("metrics").BeginObject();
    for (const auto& [key, value] : metrics_) w.Key(key).Double(value);
    w.EndObject();
    if (!telemetry_json_.empty()) w.Key("telemetry").Raw(telemetry_json_);
    w.EndObject();
    return w.str();
  }

  /// Writes BENCH_<name>.json into the working directory. Returns false
  /// (after a stderr note) when the file cannot be written; benches treat
  /// that as nonfatal -- the stdout tables already happened.
  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    const std::string body = ToJson();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
        std::fputc('\n', f) != EOF;
    std::fclose(f);
    if (ok) std::printf("wrote %s\n", path.c_str());
    return ok;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::string telemetry_json_;
};

}  // namespace aid::bench

#endif  // AID_BENCH_BENCH_JSON_H_
