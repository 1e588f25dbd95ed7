#include "src/obs/export.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

namespace rc::obs {

namespace {

// A sample value in the Prometheus text format, which spells the non-finite
// values NaN, +Inf and -Inf (printf would write nan/inf).
std::string Fmt(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// A JSON number; JSON has no NaN or infinity, so those render as null.
std::string JsonNumber(double v) { return std::isfinite(v) ? Fmt(v) : "null"; }

std::string Series(const MetricInfo& info, const std::string& extra_label = "") {
  std::string labels = info.labels;
  if (!extra_label.empty()) {
    labels += labels.empty() ? extra_label : "," + extra_label;
  }
  return labels.empty() ? info.name : info.name + "{" + labels + "}";
}

void Header(std::ostringstream& out, const MetricInfo& info, const char* type,
            std::map<std::string, bool>& emitted) {
  // One HELP/TYPE block per metric family, even when labels split it into
  // several series.
  if (emitted[info.name]) return;
  emitted[info.name] = true;
  if (!info.help.empty()) out << "# HELP " << info.name << " " << info.help << "\n";
  out << "# TYPE " << info.name << " " << type << "\n";
}

}  // namespace

std::string PrometheusText(const RegistrySnapshot& snapshot) {
  std::ostringstream out;
  std::map<std::string, bool> emitted;
  for (const auto& c : snapshot.counters) {
    Header(out, c.info, "counter", emitted);
    out << Series(c.info) << " " << c.value << "\n";
  }
  for (const auto& g : snapshot.gauges) {
    Header(out, g.info, "gauge", emitted);
    out << Series(g.info) << " " << Fmt(g.value) << "\n";
  }
  for (const auto& h : snapshot.histograms) {
    Header(out, h.info, "histogram", emitted);
    // Cumulative buckets; empty buckets are elided (except +Inf) to keep the
    // exposition compact — cumulative counts lose nothing by the elision.
    uint64_t cumulative = 0;
    for (size_t b = 0; b < h.hist.bounds.size(); ++b) {
      if (h.hist.buckets[b] == 0) continue;
      cumulative += h.hist.buckets[b];
      MetricInfo bucket_info = h.info;
      bucket_info.name += "_bucket";
      out << Series(bucket_info, "le=\"" + Fmt(h.hist.bounds[b]) + "\"") << " "
          << cumulative << "\n";
    }
    MetricInfo bucket_info = h.info;
    bucket_info.name += "_bucket";
    out << Series(bucket_info, "le=\"+Inf\"") << " " << h.hist.count << "\n";
    MetricInfo sum_info = h.info;
    sum_info.name += "_sum";
    out << Series(sum_info) << " " << Fmt(h.hist.sum) << "\n";
    MetricInfo count_info = h.info;
    count_info.name += "_count";
    out << Series(count_info) << " " << h.hist.count << "\n";
    // Sliding-window companions (gauges: they go up and down as the ring
    // rotates, unlike the monotone lifetime series above).
    auto window_series = [&](const char* suffix, double v) {
      MetricInfo window_info = h.info;
      window_info.name += suffix;
      window_info.help.clear();
      Header(out, window_info, "gauge", emitted);
      out << Series(window_info) << " " << Fmt(v) << "\n";
    };
    window_series("_window_count", static_cast<double>(h.window.count));
    window_series("_window_p50", h.window.Quantile(0.50));
    window_series("_window_p95", h.window.Quantile(0.95));
    window_series("_window_p99", h.window.Quantile(0.99));
  }
  return out.str();
}

std::string PrometheusText(const MetricsRegistry& registry) {
  return PrometheusText(registry.Collect());
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// name{labels} -> JSON entry body, in registry (sorted) order.
std::vector<std::pair<std::string, std::string>> JsonEntries(
    const RegistrySnapshot& snapshot) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (const auto& c : snapshot.counters) {
    entries.emplace_back(c.info.Key(),
                         "{\"type\":\"counter\",\"value\":" + std::to_string(c.value) + "}");
  }
  for (const auto& g : snapshot.gauges) {
    entries.emplace_back(g.info.Key(),
                         "{\"type\":\"gauge\",\"value\":" + JsonNumber(g.value) + "}");
  }
  for (const auto& h : snapshot.histograms) {
    std::string body = "{\"type\":\"histogram\",\"count\":" + std::to_string(h.hist.count) +
                       ",\"sum\":" + JsonNumber(h.hist.sum) +
                       ",\"mean\":" + JsonNumber(h.hist.Mean()) +
                       ",\"p50\":" + JsonNumber(h.hist.Quantile(0.50)) +
                       ",\"p95\":" + JsonNumber(h.hist.Quantile(0.95)) +
                       ",\"p99\":" + JsonNumber(h.hist.Quantile(0.99)) +
                       ",\"p999\":" + JsonNumber(h.hist.Quantile(0.999)) +
                       ",\"window_count\":" + std::to_string(h.window.count) +
                       ",\"window_p50\":" + JsonNumber(h.window.Quantile(0.50)) +
                       ",\"window_p95\":" + JsonNumber(h.window.Quantile(0.95)) +
                       ",\"window_p99\":" + JsonNumber(h.window.Quantile(0.99)) + "}";
    entries.emplace_back(h.info.Key(), std::move(body));
  }
  return entries;
}

std::string RenderJson(const std::vector<std::pair<std::string, std::string>>& entries) {
  std::string out = "{\n  \"metrics\": {";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n    \"" + JsonEscape(entries[i].first) + "\": " + entries[i].second;
  }
  out += entries.empty() ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

}  // namespace

std::string JsonText(const RegistrySnapshot& snapshot) {
  return RenderJson(JsonEntries(snapshot));
}

std::string JsonText(const MetricsRegistry& registry) {
  return JsonText(registry.Collect());
}

namespace {

bool WriteTextFile(const std::string& path, const std::string& text) {
  // Write-then-rename so a concurrent reader sees either the old snapshot or
  // the new one, never a torn write. The pid in the temp name keeps parallel
  // writers to the same path from clobbering each other's temp files.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << text;
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// Minimal scanner for the {"metrics": {...}} layout written above: extracts
// the top-level entries of the "metrics" object as key -> raw value text.
// Tolerant by design — any structural surprise returns false and the caller
// overwrites the file.
bool ParseMetricsFile(const std::string& text,
                      std::map<std::string, std::string>& out) {
  size_t pos = text.find("\"metrics\"");
  if (pos == std::string::npos) return false;
  pos = text.find('{', pos);
  if (pos == std::string::npos) return false;
  ++pos;
  auto skip_ws = [&] {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\n' ||
                                 text[pos] == '\r' || text[pos] == '\t')) {
      ++pos;
    }
  };
  auto parse_string = [&](std::string& s) {
    if (pos >= text.size() || text[pos] != '"') return false;
    ++pos;
    s.clear();
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) {
        s += text[pos + 1];  // good enough for the \" and \\ we emit
        pos += 2;
      } else {
        s += text[pos++];
      }
    }
    if (pos >= text.size()) return false;
    ++pos;  // closing quote
    return true;
  };
  while (true) {
    skip_ws();
    if (pos < text.size() && text[pos] == '}') return true;  // end of "metrics"
    std::string key;
    if (!parse_string(key)) return false;
    skip_ws();
    if (pos >= text.size() || text[pos] != ':') return false;
    ++pos;
    skip_ws();
    // Capture a balanced value (object, or any scalar up to , or }).
    size_t start = pos;
    int depth = 0;
    bool in_string = false;
    for (; pos < text.size(); ++pos) {
      char c = text[pos];
      if (in_string) {
        if (c == '\\') {
          ++pos;
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) break;
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
    }
    if (pos > text.size() || pos == start) return false;
    out[key] = text.substr(start, pos - start);
    skip_ws();
    if (pos < text.size() && text[pos] == ',') ++pos;
  }
}

}  // namespace

bool MergeJsonMetricsFile(const std::string& path, const MetricsRegistry& registry) {
  std::map<std::string, std::string> merged;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      std::map<std::string, std::string> existing;
      if (ParseMetricsFile(buffer.str(), existing)) merged = std::move(existing);
    }
  }
  for (auto& [key, body] : JsonEntries(registry.Collect())) merged[key] = std::move(body);
  std::vector<std::pair<std::string, std::string>> entries(merged.begin(), merged.end());
  return WriteTextFile(path, RenderJson(entries));
}

}  // namespace rc::obs
