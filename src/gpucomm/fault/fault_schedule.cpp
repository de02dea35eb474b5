#include "gpucomm/fault/fault_schedule.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace gpucomm::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kLinkDegrade: return "link-degrade";
    case FaultKind::kNicFail: return "nic-fail";
    case FaultKind::kSwitchFail: return "switch-fail";
    case FaultKind::kStraggler: return "straggler";
  }
  return "?";
}

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ss(line.substr(0, line.find('#')));
  std::string tok;
  while (ss >> tok) out.push_back(tok);
  return out;
}

/// A finite, non-negative time with a ps/ns/us/ms/s unit that fits SimTime
/// (below SimTime::infinity(), which means "never"). strtod also accepts
/// "nan"/"inf", and converting those or an out-of-range double to int64 is
/// undefined, so both are rejected before the cast.
bool parse_time(const std::string& tok, SimTime& out) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || !std::isfinite(v) || v < 0) return false;
  const std::string unit(end);
  double ps_per_unit = 0.0;
  if (unit == "ps") {
    ps_per_unit = 1.0;
  } else if (unit == "ns") {
    ps_per_unit = 1e3;
  } else if (unit == "us") {
    ps_per_unit = 1e6;
  } else if (unit == "ms") {
    ps_per_unit = 1e9;
  } else if (unit == "s") {
    ps_per_unit = 1e12;
  } else {
    return false;
  }
  const double ps = v * ps_per_unit;
  if (ps >= static_cast<double>(SimTime::infinity().ps)) return false;
  out = SimTime{static_cast<std::int64_t>(ps)};
  return true;
}

/// A finite number; "nan" and "inf" would slip through every range check.
bool parse_number(const std::string& tok, double& out) {
  char* end = nullptr;
  out = std::strtod(tok.c_str(), &end);
  return end != tok.c_str() && *end == '\0' && std::isfinite(out);
}

bool parse_id(const std::string& tok, std::uint32_t& out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
  if (*end != '\0' || v >= UINT32_MAX) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

/// Link target: a bare directed link id ("42") or a device pair ("3-17").
bool parse_link_target(const std::string& tok, FaultEvent& e) {
  const std::size_t dash = tok.find('-');
  if (dash == std::string::npos) return parse_id(tok, e.link);
  return parse_id(tok.substr(0, dash), e.dev_a) && parse_id(tok.substr(dash + 1), e.dev_b) &&
         e.dev_a != e.dev_b;
}

}  // namespace

std::optional<FaultSchedule> parse_fault_schedule(const std::string& text, std::string* error) {
  const auto fail = [&](int line_no, const std::string& what) -> std::optional<FaultSchedule> {
    if (error != nullptr) *error = "line " + std::to_string(line_no) + ": " + what;
    return std::nullopt;
  };

  FaultSchedule schedule;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;
    if (tok.size() < 4 || tok[0] != "at")
      return fail(line_no, "expected 'at <time> <verb> ...'");
    FaultEvent e;
    if (!parse_time(tok[1], e.time))
      return fail(line_no, "bad time '" + tok[1] + "' (want e.g. 100us)");

    const std::string& verb = tok[2];
    if (verb == "down" || verb == "up") {
      e.kind = verb == "down" ? FaultKind::kLinkDown : FaultKind::kLinkUp;
      if (tok[3] != "link" || tok.size() < 5)
        return fail(line_no, "expected '" + verb + " link <id|a-b>'");
      if (!parse_link_target(tok[4], e))
        return fail(line_no, "bad link target '" + tok[4] + "'");
      if (verb == "down" && tok.size() == 7 && tok[5] == "for") {
        if (!parse_time(tok[6], e.duration) || e.duration <= SimTime::zero())
          return fail(line_no, "bad duration '" + tok[6] + "'");
        if (e.duration.ps >= SimTime::infinity().ps - e.time.ps)
          return fail(line_no, "restore time past the end of simulated time");
      } else if (tok.size() != 5) {
        return fail(line_no, "trailing tokens after link target");
      }
    } else if (verb == "degrade") {
      e.kind = FaultKind::kLinkDegrade;
      if (tok[3] != "link" || tok.size() != 6)
        return fail(line_no, "expected 'degrade link <id|a-b> <fraction>'");
      if (!parse_link_target(tok[4], e))
        return fail(line_no, "bad link target '" + tok[4] + "'");
      if (!parse_number(tok[5], e.factor) || e.factor <= 0.0 || e.factor > 1.0)
        return fail(line_no, "degrade fraction must be in (0, 1]");
    } else if (verb == "fail") {
      if (tok.size() != 5 || (tok[3] != "nic" && tok[3] != "switch"))
        return fail(line_no, "expected 'fail nic|switch <device-id>'");
      e.kind = tok[3] == "nic" ? FaultKind::kNicFail : FaultKind::kSwitchFail;
      if (!parse_id(tok[4], e.dev_a))
        return fail(line_no, "bad device id '" + tok[4] + "'");
    } else if (verb == "straggle") {
      e.kind = FaultKind::kStraggler;
      if (tok[3] != "gpu" || tok.size() != 6)
        return fail(line_no, "expected 'straggle gpu <index> <factor>'");
      std::uint32_t gpu = 0;
      if (!parse_id(tok[4], gpu)) return fail(line_no, "bad gpu index '" + tok[4] + "'");
      e.gpu = static_cast<int>(gpu);
      if (!parse_number(tok[5], e.factor) || e.factor < 1.0)
        return fail(line_no, "straggle factor must be >= 1");
    } else {
      return fail(line_no, "unknown verb '" + verb + "'");
    }
    schedule.events.push_back(e);
  }
  return schedule;
}

std::optional<FaultSchedule> load_fault_schedule(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot read fault schedule '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_fault_schedule(text.str(), error);
}

}  // namespace gpucomm::fault
