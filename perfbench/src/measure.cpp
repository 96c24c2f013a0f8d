#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

#include <unistd.h>

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ---------------------------------------------------------------- samples

SampleSet::SampleSet(std::size_t cap, std::uint64_t seed)
    : cap_(std::max<std::size_t>(cap, 1)), rng_(seed | 1) {}

void SampleSet::add(double v) {
  ++seen_;
  sum_ += v;
  if (kept_.size() < cap_) {
    kept_.push_back(v);
    return;
  }
  // Algorithm R with an xorshift stream: sample i replaces a kept slot
  // with probability cap / i.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::uint64_t slot = rng_ % seen_;
  if (slot < cap_) kept_[slot] = v;
}

std::vector<double> SampleSet::sorted() const {
  std::vector<double> out = kept_;
  std::sort(out.begin(), out.end());
  return out;
}

void SampleSet::merge(const SampleSet& other) {
  for (const double v : other.kept_) {
    if (kept_.size() < cap_) kept_.push_back(v);
  }
  seen_ += other.seen_;
  sum_ += other.sum_;
}

Quantile quantile(const std::vector<double>& sorted, double q) {
  Quantile out;
  out.count = sorted.size();
  if (sorted.empty()) return out;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::uint64_t>(std::ceil(q * n));
  rank = std::clamp<std::uint64_t>(rank, 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  out.supported = out.beyond >= kMinBeyond;
  return out;
}

// ---------------------------------------------------------- counter windows

WindowDiff diff_window(const Counters& start, const Counters& end) {
  WindowDiff out;
  for (const auto& [k, v] : end) {
    const auto it = start.find(k);
    const double before = it == start.end() ? 0.0 : it->second;
    if (v < before) out.went_backwards.push_back(k);
    out.delta[k] = v - before;
  }
  for (const auto& [k, v] : start)
    if (end.find(k) == end.end()) out.went_backwards.push_back(k);
  return out;
}

// ------------------------------------------------------------ STATS parser

namespace {

bool parse_labels(const std::string& s, std::size_t* pos,
                  std::map<std::string, std::string>* labels) {
  // *pos is just past '{'.
  std::size_t i = *pos;
  while (i < s.size() && s[i] != '}') {
    const std::size_t eq = s.find('=', i);
    if (eq == std::string::npos || eq + 1 >= s.size() || s[eq + 1] != '"')
      return false;
    const std::string key = s.substr(i, eq - i);
    std::string value;
    std::size_t j = eq + 2;
    for (; j < s.size() && s[j] != '"'; ++j) {
      if (s[j] == '\\' && j + 1 < s.size()) {
        ++j;
        value += s[j] == 'n' ? '\n' : s[j];
      } else {
        value += s[j];
      }
    }
    if (j >= s.size() || key.empty()) return false;
    (*labels)[key] = value;
    i = j + 1;
    if (i < s.size() && s[i] == ',') ++i;
  }
  if (i >= s.size()) return false;
  *pos = i + 1;
  return true;
}

bool labels_match(const std::map<std::string, std::string>& labels,
                  const std::map<std::string, std::string>& match) {
  for (const auto& [k, want] : match) {
    const auto it = labels.find(k);
    if (it == labels.end()) return false;
    if (!want.empty() && want.back() == '*') {
      if (it->second.compare(0, want.size() - 1, want, 0, want.size() - 1) != 0)
        return false;
    } else if (it->second != want) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<std::vector<PromSample>> parse_prometheus(const std::string& text) {
  std::vector<PromSample> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    PromSample s;
    std::size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
    s.family = line.substr(0, pos);
    if (s.family.empty() || pos >= line.size()) return std::nullopt;
    if (line[pos] == '{') {
      ++pos;
      if (!parse_labels(line, &pos, &s.labels)) return std::nullopt;
    }
    if (pos >= line.size() || line[pos] != ' ') return std::nullopt;
    const std::string num = line.substr(pos + 1);
    char* end = nullptr;
    s.value = std::strtod(num.c_str(), &end);
    if (end == num.c_str()) return std::nullopt;
    out.push_back(std::move(s));
  }
  return out;
}

std::optional<double> prom_sum(const std::vector<PromSample>& samples,
                               const std::string& family,
                               const std::map<std::string, std::string>& match) {
  std::optional<double> total;
  for (const auto& s : samples)
    if (s.family == family && labels_match(s.labels, match))
      total = total.value_or(0.0) + s.value;
  return total;
}

std::optional<double> prom_max(const std::vector<PromSample>& samples,
                               const std::string& family,
                               const std::map<std::string, std::string>& match) {
  std::optional<double> best;
  for (const auto& s : samples)
    if (s.family == family && labels_match(s.labels, match))
      best = std::max(best.value_or(s.value), s.value);
  return best;
}

// ------------------------------------------------------------------ /proc

namespace {

std::string proc_path(int pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

}  // namespace

double process_cpu_seconds(int pid) {
  if (pid == 0) {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  std::ifstream f(proc_path(pid, "stat"));
  std::string stat;
  std::getline(f, stat);
  // Fields after the parenthesised command name; utime/stime are the 14th
  // and 15th fields overall, i.e. the 12th and 13th after ") ".
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12) utime = std::strtod(field.c_str(), nullptr);
    if (i == 13) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mib(int pid) {
  std::ifstream f(proc_path(pid, "status"));
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

// ----------------------------------------------------------------- tracing

SpanLog::SpanLog(std::vector<std::string> names, std::size_t max_stored)
    : names_(std::move(names)), max_stored_(max_stored) {
  durations_.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i)
    durations_.emplace_back(std::size_t{1} << 18, 0x5EED + i);
  spans_.reserve(std::min<std::size_t>(max_stored_, 1 << 12));
}

std::uint32_t SpanLog::record(std::uint32_t name, std::uint64_t id,
                              std::int64_t start_ns, std::int64_t end_ns,
                              std::uint32_t parent) {
  durations_[name].add(static_cast<double>(end_ns - start_ns));
  if (spans_.size() >= max_stored_) return 0;
  spans_.push_back(Span{name, parent, id, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanLog::append_chrome_events(std::string* out, int tid) const {
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%u,\"id\":%llu}},\n",
                  names_[s.name].c_str(), tid,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                  s.parent, static_cast<unsigned long long>(s.id));
    *out += buf;
  }
}

bool write_trace(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::string body = "[\n";
  for (std::size_t t = 0; t < logs.size(); ++t)
    logs[t]->append_chrome_events(&body, static_cast<int>(t + 1));
  if (body.size() > 2) body.resize(body.size() - 2);  // trailing ",\n"
  body += "\n]\n";
  std::ofstream f(path);
  f << body;
  return static_cast<bool>(f);
}

// --------------------------------------------------------------------- JSON

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + json_escape(k) + "\": ";
}

JsonObject& JsonObject::num(const std::string& k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::integer(const std::string& k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += "\"" + json_escape(v) + "\"";
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace perfbench
