// Minimal command-line flag parsing for bench/example binaries.
//
// Accepts "--key=value" and "--key value" forms plus bare "--key" booleans.
// Unknown flags are an error so typos in sweep scripts fail loudly, and so
// is a value its getter cannot parse in full: "--leaves=abc", "--rate=",
// "--n=1e99999" and "--flag=maybe" exit with status 2 and a message naming
// the flag instead of running with a silent 0.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace hbp::util {

class Flags {
 public:
  Flags(int argc, char** argv);

  // Each get_* registers the key as known; call finish() after all lookups.
  // Numbers must parse completely and fit their type; booleans are one of
  // true/false/1/0/yes/no.
  double get_double(const std::string& key, double def);
  std::int64_t get_int(const std::string& key, std::int64_t def);
  bool get_bool(const std::string& key, bool def);
  std::string get_string(const std::string& key, const std::string& def);

  // Parses a comma-separated list of doubles, e.g. --sweep=1,2,5,10.
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> def);

  bool has(const std::string& key) const { return values_.contains(key); }

  // Aborts with a message listing unknown flags, if any were passed.
  void finish() const;

 private:
  std::optional<std::string> lookup(const std::string& key);
  [[noreturn]] void reject(const std::string& key,
                           const std::string& value) const;

  std::map<std::string, std::string> values_;
  std::set<std::string> known_;
  std::string program_;
};

}  // namespace hbp::util
