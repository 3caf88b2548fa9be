#include "octgb/util/args.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "octgb/util/check.hpp"
#include "octgb/util/strings.hpp"

namespace octgb::util {

Args& Args::add(const std::string& name, std::string* target,
                const std::string& help_text) {
  Option o;
  o.help = help_text;
  o.default_repr = *target;
  o.set = [target](const std::string& v) { *target = v; };
  opts_[name] = std::move(o);
  order_.push_back(name);
  return *this;
}

Args& Args::add(const std::string& name, double* target,
                const std::string& help_text) {
  Option o;
  o.help = help_text;
  o.default_repr = format("%g", *target);
  o.set = [target](const std::string& v) {
    *target = parse_double_field(v, *target);
  };
  opts_[name] = std::move(o);
  order_.push_back(name);
  return *this;
}

Args& Args::add(const std::string& name, int* target,
                const std::string& help_text) {
  Option o;
  o.help = help_text;
  o.default_repr = format("%d", *target);
  o.set = [target](const std::string& v) {
    *target = parse_int_field(v, *target);
  };
  opts_[name] = std::move(o);
  order_.push_back(name);
  return *this;
}

Args& Args::add(const std::string& name, long long* target,
                const std::string& help_text) {
  Option o;
  o.help = help_text;
  o.default_repr = format("%lld", *target);
  o.set = [target](const std::string& v) {
    *target = parse_llong_field(v, *target);
  };
  opts_[name] = std::move(o);
  order_.push_back(name);
  return *this;
}

Args& Args::flag(const std::string& name, bool* target,
                 const std::string& help_text) {
  Option o;
  o.help = help_text;
  o.is_flag = true;
  o.default_repr = *target ? "true" : "false";
  o.set = [target](const std::string&) { *target = true; };
  opts_[name] = std::move(o);
  order_.push_back(name);
  return *this;
}

void Args::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help(argv[0]).c_str(), stdout);
      std::exit(0);
    }
    OCTGB_CHECK_MSG(starts_with(arg, "--"), "unexpected argument: " << arg);
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = opts_.find(arg);
    OCTGB_CHECK_MSG(it != opts_.end(), "unknown option: --" << arg);
    if (it->second.is_flag) {
      it->second.set("");
    } else {
      if (!has_value) {
        OCTGB_CHECK_MSG(i + 1 < argc, "option --" << arg << " needs a value");
        value = argv[++i];
      }
      it->second.set(value);
    }
  }
}

std::string Args::help(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [options]\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& o = opts_.at(name);
    os << "  --" << name << (o.is_flag ? "" : " <value>") << "\n        "
       << o.help << " (default: " << o.default_repr << ")\n";
  }
  os << "  --help\n        show this message\n";
  return os.str();
}

}  // namespace octgb::util
