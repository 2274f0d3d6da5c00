#include "util/civil_time.h"

#include <array>
#include <charconv>
#include <cstdio>

namespace tsufail {
namespace {

/// Parses an unsigned integer of 1..4 digits at the front of `text`,
/// advancing `text` past it.  Returns -1 if no digit is present.
int take_int(std::string_view& text, int max_digits) {
  int value = 0;
  int digits = 0;
  while (digits < max_digits && !text.empty() && text.front() >= '0' && text.front() <= '9') {
    value = value * 10 + (text.front() - '0');
    text.remove_prefix(1);
    ++digits;
  }
  return digits == 0 ? -1 : value;
}

/// Characters of the widest int, "-2147483648".
constexpr std::size_t kIntChars = 11;

/// Consumes `c` from the front of `text`; returns false if absent.
bool take_char(std::string_view& text, char c) {
  if (text.empty() || text.front() != c) return false;
  text.remove_prefix(1);
  return true;
}

/// Parses the optional "HH:MM[:SS]" suffix (after a ' ' or 'T' separator)
/// into `c`.  Returns false on malformed time-of-day.
bool parse_time_of_day(std::string_view& text, CivilDateTime& c) {
  if (text.empty()) return true;  // date-only timestamp: midnight
  if (!take_char(text, ' ') && !take_char(text, 'T')) return false;
  c.hour = take_int(text, 2);
  if (c.hour < 0 || !take_char(text, ':')) return false;
  c.minute = take_int(text, 2);
  if (c.minute < 0) return false;
  if (take_char(text, ':')) {
    c.second = take_int(text, 2);
    if (c.second < 0) return false;
  }
  return text.empty();
}

}  // namespace

TimePoint TimePoint::from_civil(const CivilDateTime& c) {
  TSUFAIL_REQUIRE(validate_civil(c).ok(), "from_civil: invalid civil date-time");
  const std::int64_t days = days_from_civil(c.year, c.month, c.day);
  return TimePoint(days * 86400 + c.hour * 3600 + c.minute * 60 + c.second);
}

CivilDateTime TimePoint::to_civil() const noexcept {
  std::int64_t days = seconds_ / 86400;
  std::int64_t rem = seconds_ % 86400;
  if (rem < 0) {
    rem += 86400;
    --days;
  }
  CivilDateTime c = civil_from_days(days);
  c.hour = static_cast<int>(rem / 3600);
  c.minute = static_cast<int>((rem % 3600) / 60);
  c.second = static_cast<int>(rem % 60);
  return c;
}

Result<void> validate_civil(const CivilDateTime& c) {
  if (c.month < 1 || c.month > 12)
    return Error(ErrorKind::kValidation, "month out of range: " + std::to_string(c.month));
  if (c.day < 1 || c.day > days_in_month(c.year, c.month))
    return Error(ErrorKind::kValidation, "day out of range: " + std::to_string(c.day));
  if (c.hour < 0 || c.hour > 23)
    return Error(ErrorKind::kValidation, "hour out of range: " + std::to_string(c.hour));
  if (c.minute < 0 || c.minute > 59)
    return Error(ErrorKind::kValidation, "minute out of range: " + std::to_string(c.minute));
  if (c.second < 0 || c.second > 59)
    return Error(ErrorKind::kValidation, "second out of range: " + std::to_string(c.second));
  return {};
}

Result<TimePoint> parse_time(std::string_view text) {
  const std::string_view original = text;
  CivilDateTime c;

  const int first = take_int(text, 4);
  if (first < 0)
    return Error(ErrorKind::kParse, "timestamp must start with a number: '" + std::string(original) + "'");

  if (take_char(text, '-') || take_char(text, '/')) {
    const char sep = original[text.data() - original.data() - 1];
    const int second_field = take_int(text, 2);
    if (second_field < 0 || !take_char(text, sep))
      return Error(ErrorKind::kParse, "malformed date: '" + std::string(original) + "'");
    const int third_field = take_int(text, 4);
    if (third_field < 0)
      return Error(ErrorKind::kParse, "malformed date: '" + std::string(original) + "'");
    if (first >= 1000) {
      // "YYYY-MM-DD" or "YYYY/MM/DD"
      c.year = first;
      c.month = second_field;
      c.day = third_field;
    } else {
      // US-style "M/D/YYYY"
      if (third_field < 1000)
        return Error(ErrorKind::kParse, "ambiguous two-digit year: '" + std::string(original) + "'");
      c.month = first;
      c.day = second_field;
      c.year = third_field;
    }
  } else {
    return Error(ErrorKind::kParse, "missing date separator: '" + std::string(original) + "'");
  }

  if (!parse_time_of_day(text, c))
    return Error(ErrorKind::kParse, "malformed time of day: '" + std::string(original) + "'");

  if (auto valid = validate_civil(c); !valid.ok())
    return valid.error().with_context("'" + std::string(original) + "'");
  return TimePoint::from_civil(c);
}

std::string format_time(TimePoint t) {
  const CivilDateTime c = t.to_civil();
  // Room for every field at full int width ("-2147483648"), so no year,
  // however far out, is cut short.
  char buf[6 * kIntChars + 6];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", c.year, c.month, c.day,
                c.hour, c.minute, c.second);
  return buf;
}

std::string format_date(TimePoint t) {
  const CivilDateTime c = t.to_civil();
  char buf[3 * kIntChars + 3];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
  return buf;
}

std::string_view month_name(int month) {
  static constexpr std::array<std::string_view, 12> kNames = {
      "January", "February", "March",     "April",   "May",      "June",
      "July",    "August",   "September", "October", "November", "December"};
  TSUFAIL_REQUIRE(month >= 1 && month <= 12, "month_name: month out of range");
  return kNames[static_cast<std::size_t>(month - 1)];
}

std::string_view month_abbrev(int month) {
  static constexpr std::array<std::string_view, 12> kAbbrevs = {
      "Jan", "Feb", "Mar", "Apr", "May", "Jun",
      "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  TSUFAIL_REQUIRE(month >= 1 && month <= 12, "month_abbrev: month out of range");
  return kAbbrevs[static_cast<std::size_t>(month - 1)];
}

}  // namespace tsufail
