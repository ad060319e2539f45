#include "util/flags.h"

#include <cstdio>

#include "util/strings.h"

namespace ccdn {

Flags::Flags(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  tokens.reserve(argc > 0 ? static_cast<std::size_t>(argc) - 1 : 0);
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  parse(tokens);
}

Flags::Flags(const std::vector<std::string>& tokens) { parse(tokens); }

void Flags::parse(const std::vector<std::string>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (!starts_with(token, "--")) {
      positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    if (body.empty()) throw ParseError("bare '--' is not a flag");
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` form, unless the next token is itself a flag.
    if (i + 1 < tokens.size() && !starts_with(tokens[i + 1], "--")) {
      values_[body] = tokens[i + 1];
      ++i;
    } else {
      values_[body] = "true";
    }
  }
}

std::optional<std::string> Flags::raw(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  accessed_[name] = true;
  return it->second;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  return raw(name).value_or(fallback);
}

namespace {

[[noreturn]] void throw_malformed(const std::string& name,
                                 const ParseError& error) {
  throw FlagError("flag --" + name + ": " + error.what());
}

std::string format_number(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%g", value);
  return text;
}

}  // namespace

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto value = raw(name);
  if (!value) return fallback;
  try {
    return parse_int(*value);
  } catch (const ParseError& error) {
    throw_malformed(name, error);
  }
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto value = raw(name);
  if (!value) return fallback;
  try {
    return parse_double(*value);
  } catch (const ParseError& error) {
    throw_malformed(name, error);
  }
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto value = raw(name);
  if (!value) return fallback;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  throw FlagError("flag --" + name + " is not a boolean: '" + *value + "'");
}

std::int64_t Flags::get_int_in(const std::string& name, std::int64_t fallback,
                               std::int64_t min, std::int64_t max) const {
  if (!values_.contains(name)) return fallback;
  const std::int64_t value = get_int(name, fallback);
  if (value < min || value > max) {
    throw FlagError("flag --" + name + "=" + *raw(name) + " is outside [" +
                    std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return value;
}

double Flags::get_double_in(const std::string& name, double fallback,
                            double above, double at_most) const {
  if (!values_.contains(name)) return fallback;
  const double value = get_double(name, fallback);
  if (!(value > above && value <= at_most)) {
    throw FlagError("flag --" + name + "=" + *raw(name) + " is outside (" +
                    format_number(above) + ", " + format_number(at_most) +
                    "]");
  }
  return value;
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : values_) {
    if (!accessed_.count(name)) names.push_back(name);
  }
  return names;
}

bool reject_unused(const Flags& flags, std::string_view program) {
  const std::vector<std::string> unused = flags.unused();
  for (const std::string& name : unused) {
    std::fprintf(stderr, "%.*s: unknown flag --%s\n",
                 static_cast<int>(program.size()), program.data(),
                 name.c_str());
  }
  return !unused.empty();
}

bool read_flags(int argc, const char* const* argv,
                const std::function<void(const Flags&)>& read) {
  std::string_view program = argc > 0 ? argv[0] : "";
  program = program.substr(program.find_last_of('/') + 1);
  try {
    const Flags flags(argc, argv);
    read(flags);
    return !reject_unused(flags, program);
  } catch (const ParseError& error) {
    std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(program.size()),
                 program.data(), error.what());
    return false;
  }
}

}  // namespace ccdn
