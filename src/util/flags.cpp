#include "util/flags.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace hbp::util {
namespace {

// Each parser accepts only a non-empty string it consumes in full and whose
// value fits the result type.
bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && errno != ERANGE;
}

bool parse_int(const std::string& s, std::int64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoll(s.c_str(), &end, 10);
  return end == s.c_str() + s.size() && errno != ERANGE;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: unexpected positional argument '%s'\n",
                   program_.c_str(), arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

std::optional<std::string> Flags::lookup(const std::string& key) {
  known_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

void Flags::reject(const std::string& key, const std::string& value) const {
  std::fprintf(stderr, "%s: bad value for --%s: '%s'\n", program_.c_str(),
               key.c_str(), value.c_str());
  std::exit(2);
}

double Flags::get_double(const std::string& key, double def) {
  const auto v = lookup(key);
  if (!v) return def;
  double out = 0.0;
  if (!parse_double(*v, out)) reject(key, *v);
  return out;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t def) {
  const auto v = lookup(key);
  if (!v) return def;
  std::int64_t out = 0;
  if (!parse_int(*v, out)) reject(key, *v);
  return out;
}

bool Flags::get_bool(const std::string& key, bool def) {
  const auto v = lookup(key);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  reject(key, *v);
}

std::string Flags::get_string(const std::string& key, const std::string& def) {
  const auto v = lookup(key);
  return v ? *v : def;
}

std::vector<double> Flags::get_double_list(const std::string& key,
                                           std::vector<double> def) {
  const auto v = lookup(key);
  if (!v) return def;
  std::vector<double> out;
  const std::string& s = *v;
  std::size_t pos = 0;
  while (pos <= s.size()) {  // an empty value or item is rejected
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    double item = 0.0;
    if (!parse_double(s.substr(pos, comma - pos), item)) reject(key, s);
    out.push_back(item);
    pos = comma + 1;
  }
  return out;
}

void Flags::finish() const {
  bool bad = false;
  for (const auto& [key, value] : values_) {
    if (!known_.contains(key)) {
      std::fprintf(stderr, "%s: unknown flag --%s=%s\n", program_.c_str(),
                   key.c_str(), value.c_str());
      bad = true;
    }
  }
  if (bad) {
    std::fprintf(stderr, "known flags:");
    for (const auto& k : known_) std::fprintf(stderr, " --%s", k.c_str());
    std::fputc('\n', stderr);
    std::exit(2);
  }
}

}  // namespace hbp::util
