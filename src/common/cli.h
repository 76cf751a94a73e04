#ifndef SEMCOR_COMMON_CLI_H_
#define SEMCOR_COMMON_CLI_H_

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace semcor::cli {

/// Build identity reported by every binary's `--version` flag. One shared
/// constant, so a mixed deployment (server vs bench client vs explorer) can
/// be diagnosed from the version lines alone.
inline constexpr const char* kVersion = "semcor 0.6.0";

/// Parses a duration into microseconds: "250ms", "2s", "1500us". A bare
/// number means milliseconds (the common case for timeout flags). Rejects
/// empty strings, negatives, unknown suffixes, trailing junk, and values
/// that would overflow uint64 microseconds. Shared by the Flags parser
/// (DurationUs kind) and exposed directly so tests can pin the grammar.
inline bool ParseDurationUs(const std::string& value, uint64_t* out) {
  if (value.empty() || value[0] == '-' || value[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end == value.c_str()) return false;
  const std::string suffix(end);
  uint64_t scale = 0;
  if (suffix.empty() || suffix == "ms") {
    scale = 1000;
  } else if (suffix == "us") {
    scale = 1;
  } else if (suffix == "s") {
    scale = 1000000;
  } else {
    return false;
  }
  if (scale != 1 && n > UINT64_MAX / scale) return false;
  *out = static_cast<uint64_t>(n) * scale;
  return true;
}

/// Renders microseconds with the largest exact suffix ("2s", "250ms",
/// "1500us") — used for flag defaults in --help output.
inline std::string FormatDurationUs(uint64_t us) {
  if (us != 0 && us % 1000000 == 0) return std::to_string(us / 1000000) + "s";
  if (us % 1000 == 0) return std::to_string(us / 1000) + "ms";
  return std::to_string(us) + "us";
}

/// Tiny declarative flag parser shared by the command-line binaries
/// (semcor_explore, semcor_serverd, semcor_bench_client, semcor_analyze) so
/// they agree on syntax and error behaviour. Flags are `--name=value`; bool
/// flags also accept bare `--name`. Unknown flags, malformed numbers, and
/// stray positional arguments are errors: Parse prints the problem plus the
/// usage text to stderr and returns false (callers exit non-zero).
/// `--help` / `-h` prints usage to stdout and sets help_requested() without
/// failing; `--version` prints kVersion to stdout and sets
/// version_requested() the same way.
///
/// Repeated flags are allowed and take **last-wins** semantics: each
/// occurrence assigns in argv order, so `--threads=4 --threads=8` leaves 8.
/// This makes wrapper scripts safe — a caller can append overrides to a base
/// command line without stripping its earlier values. Occurrences() reports
/// how many times a flag was seen, so a binary can warn on (or test for)
/// unintended repetition.
class Flags {
 public:
  Flags(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  void Str(const char* name, std::string* var, const char* help) {
    Add(name, help, Kind::kStr, var, *var);
  }
  void Int(const char* name, int* var, const char* help) {
    Add(name, help, Kind::kInt, var, std::to_string(*var));
  }
  void I64(const char* name, int64_t* var, const char* help) {
    Add(name, help, Kind::kI64, var, std::to_string(*var));
  }
  void U64(const char* name, uint64_t* var, const char* help) {
    Add(name, help, Kind::kU64, var, std::to_string(*var));
  }
  void Bool(const char* name, bool* var, const char* help) {
    Add(name, help, Kind::kBool, var, *var ? "true" : "false");
  }
  /// Duration flag stored as microseconds; accepts `us`/`ms`/`s` suffixes,
  /// bare numbers are milliseconds (see ParseDurationUs).
  void DurationUs(const char* name, uint64_t* var, const char* help) {
    Add(name, help, Kind::kDurationUs, var, FormatDurationUs(*var));
  }

  bool help_requested() const { return help_requested_; }
  bool version_requested() const { return version_requested_; }

  /// How many times --name appeared on the parsed command line (0 for a
  /// flag never given; repeated flags count every occurrence even though
  /// only the last value sticks).
  int Occurrences(const std::string& name) const {
    const Flag* flag = FindConst(name);
    return flag != nullptr ? flag->occurrences : 0;
  }

  /// Parses argv. Returns false on the first unknown flag, malformed value,
  /// or positional argument. Repeated flags assign in order (last wins).
  bool Parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        help_requested_ = true;
        PrintUsage(stdout);
        return true;
      }
      if (arg == "--version") {
        version_requested_ = true;
        std::fprintf(stdout, "%s\n", kVersion);
        return true;
      }
      if (arg.rfind("--", 0) != 0) {
        return Fail("unexpected positional argument '" + arg + "'");
      }
      const size_t eq = arg.find('=');
      const std::string name = arg.substr(2, eq == std::string::npos
                                                 ? std::string::npos
                                                 : eq - 2);
      Flag* flag = Find(name);
      if (flag == nullptr) return Fail("unknown flag --" + name);
      ++flag->occurrences;
      if (eq == std::string::npos) {
        if (flag->kind != Kind::kBool) {
          return Fail("flag --" + name + " needs a value (--" + name + "=...)");
        }
        *static_cast<bool*>(flag->target) = true;
        continue;
      }
      const std::string value = arg.substr(eq + 1);
      if (!Assign(*flag, value)) {
        return Fail("bad value '" + value + "' for flag --" + name);
      }
    }
    return true;
  }

  void PrintUsage(std::FILE* out) const {
    std::fprintf(out, "usage: %s [flags]\n%s\n\nflags:\n", program_.c_str(),
                 summary_.c_str());
    for (const Flag& f : flags_) {
      std::fprintf(out, "  --%-24s %s (default: %s)\n", f.name.c_str(),
                   f.help.c_str(), f.def.c_str());
    }
    std::fprintf(out, "  --%-24s print this help and exit\n", "help");
    std::fprintf(out, "  --%-24s print the build version and exit\n",
                 "version");
  }

 private:
  enum class Kind { kStr, kInt, kI64, kU64, kBool, kDurationUs };

  struct Flag {
    std::string name;
    std::string help;
    Kind kind;
    void* target;
    std::string def;
    int occurrences = 0;
  };

  void Add(const char* name, const char* help, Kind kind, void* target,
           std::string def) {
    flags_.push_back(Flag{name, help, kind, target, std::move(def), 0});
  }

  Flag* Find(const std::string& name) {
    for (Flag& f : flags_) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

  const Flag* FindConst(const std::string& name) const {
    for (const Flag& f : flags_) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

  static bool Assign(Flag& flag, const std::string& value) {
    switch (flag.kind) {
      case Kind::kStr:
        *static_cast<std::string*>(flag.target) = value;
        return true;
      case Kind::kDurationUs:
        return ParseDurationUs(value, static_cast<uint64_t*>(flag.target));
      case Kind::kBool:
        if (value == "true" || value == "1" || value == "yes") {
          *static_cast<bool*>(flag.target) = true;
          return true;
        }
        if (value == "false" || value == "0" || value == "no") {
          *static_cast<bool*>(flag.target) = false;
          return true;
        }
        return false;
      case Kind::kInt:
      case Kind::kI64:
      case Kind::kU64: {
        if (value.empty()) return false;
        errno = 0;
        char* end = nullptr;
        if (flag.kind == Kind::kU64) {
          if (value[0] == '-') return false;
          const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
          if (errno != 0 || end != value.c_str() + value.size()) return false;
          *static_cast<uint64_t*>(flag.target) = v;
          return true;
        }
        const long long v = std::strtoll(value.c_str(), &end, 10);
        if (errno != 0 || end != value.c_str() + value.size()) return false;
        if (flag.kind == Kind::kInt) {
          if (v < INT_MIN || v > INT_MAX) return false;  // never wrap
          *static_cast<int*>(flag.target) = static_cast<int>(v);
        } else {
          *static_cast<int64_t*>(flag.target) = v;
        }
        return true;
      }
    }
    return false;
  }

  bool Fail(const std::string& message) {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
    PrintUsage(stderr);
    return false;
  }

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
  bool help_requested_ = false;
  bool version_requested_ = false;
};

}  // namespace semcor::cli

#endif  // SEMCOR_COMMON_CLI_H_
