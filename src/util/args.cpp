#include "util/args.h"

#include "util/check.h"

namespace kcore::util {

Args::Args(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  tokens.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  parse(tokens);
}

Args::Args(std::vector<std::string> tokens) { parse(tokens); }

void Args::parse(const std::vector<std::string>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok.rfind("--", 0) != 0) {
      positional_.push_back(tok);
      continue;
    }
    const std::string body = tok.substr(2);
    KCORE_CHECK_MSG(!body.empty() && body[0] != '=',
                    "malformed option '" << tok << "'");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" when the next token is not itself an option;
    // otherwise a bare flag.
    if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      options_[body] = tokens[i + 1];
      ++i;
    } else {
      options_[body] = std::nullopt;
    }
  }
}

bool Args::has(const std::string& name) const {
  queried_[name] = true;
  return options_.contains(name);
}

std::optional<std::string> Args::get(const std::string& name) const {
  queried_[name] = true;
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_string(const std::string& name,
                             const std::string& fallback) const {
  const auto v = get(name);
  return v.value_or(fallback);
}

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  std::size_t pos = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(*v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  KCORE_CHECK_MSG(pos == v->size() && pos > 0,
                  "option --" << name << "='" << *v << "' is not an integer");
  return value;
}

std::int64_t Args::get_checked(const std::string& name,
                               std::int64_t fallback,
                               std::int64_t max) const {
  const std::int64_t value = get_int(name, fallback);
  KCORE_CHECK_MSG(value >= 0 && value <= max,
                  "--" << name << " must be in [0, " << max << "], got "
                       << value);
  return value;
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(*v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  KCORE_CHECK_MSG(pos == v->size() && pos > 0,
                  "option --" << name << "='" << *v << "' is not a number");
  return value;
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : options_) {
    if (!queried_.contains(name)) out.push_back(name);
  }
  return out;
}

}  // namespace kcore::util
