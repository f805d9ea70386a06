#include "pubsub/filter_parser.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace reef::pubsub {

namespace {

/// Hand-rolled recursive-descent scanner; inputs are short (subscription
/// strings), so clarity beats cleverness.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ParseResult run() {
    skip_space();
    // "[*]" and "[ ... ]" forms round-trip Filter::to_string().
    bool bracketed = false;
    if (peek() == '[') {
      ++pos_;
      bracketed = true;
      skip_space();
      if (peek() == '*') {
        ++pos_;
        skip_space();
        if (!consume(']')) return error("expected ']' after '*'");
        skip_space();
        if (pos_ != text_.size()) return error("trailing input");
        return Filter{};
      }
    }
    std::vector<Constraint> constraints;
    while (true) {
      auto constraint = parse_constraint();
      if (auto* err = std::get_if<ParseError>(&constraint)) return *err;
      constraints.push_back(std::get<Constraint>(std::move(constraint)));
      skip_space();
      if (pos_ + 1 < text_.size() && text_[pos_] == '&' &&
          text_[pos_ + 1] == '&') {
        pos_ += 2;
        skip_space();
        continue;
      }
      break;
    }
    if (bracketed) {
      if (!consume(']')) return error("expected closing ']'");
      skip_space();
    }
    if (pos_ != text_.size()) return error("trailing input");
    return Filter(std::move(constraints));
  }

 private:
  using ConstraintResult = std::variant<Constraint, ParseError>;

  char peek() const noexcept {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  ParseError error(std::string message) const {
    return ParseError{std::move(message), pos_};
  }

  static bool is_attr_start(char c) noexcept {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool is_attr_char(char c) noexcept {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
  }

  std::string parse_identifier() {
    std::string out;
    if (!is_attr_start(peek())) return out;
    while (pos_ < text_.size() && is_attr_char(text_[pos_])) {
      out.push_back(text_[pos_++]);
    }
    return out;
  }

  ConstraintResult parse_constraint() {
    skip_space();
    const std::string first = parse_identifier();
    if (first.empty()) return error("expected attribute name");
    skip_space();

    // "has attr" form.
    if (first == "has") {
      const std::string attr = parse_identifier();
      if (attr.empty()) return error("expected attribute after 'has'");
      return exists(attr);
    }
    // "attr any" and "attr in {v1, v2}" forms (Filter::to_string round
    // trip). The lookahead is restored when the word is neither keyword —
    // it was the start of something else (or garbage the operator parse
    // reports).
    {
      const std::size_t mark = pos_;
      const std::string keyword = parse_identifier();
      if (keyword == "any") return exists(first);
      if (keyword == "in") return parse_in_set(first);
      pos_ = mark;
    }

    // Operator.
    Op op;
    if (consume('=')) {
      if (consume('^')) {
        op = Op::kPrefix;
      } else if (consume('$')) {
        op = Op::kSuffix;
      } else if (consume('*')) {
        op = Op::kContains;
      } else {
        op = Op::kEq;
      }
    } else if (consume('!')) {
      if (!consume('=')) return error("expected '=' after '!'");
      op = Op::kNe;
    } else if (consume('<')) {
      op = consume('=') ? Op::kLe : Op::kLt;
    } else if (consume('>')) {
      op = consume('=') ? Op::kGe : Op::kGt;
    } else {
      return error("expected operator");
    }
    skip_space();

    // Value.
    auto value = parse_value();
    if (auto* err = std::get_if<ParseError>(&value)) return *err;
    return Constraint(first, op, std::get<Value>(std::move(value)));
  }

  /// "attr in { v1, v2, ... }" — the attribute and the `in` keyword are
  /// already consumed; parses the brace-delimited member list (possibly
  /// empty) and hands it to the set-membership constructor, which
  /// canonicalizes (sort, dedupe, singleton -> eq).
  ConstraintResult parse_in_set(const std::string& attr) {
    skip_space();
    if (!consume('{')) return error("expected '{' after 'in'");
    std::vector<Value> members;
    skip_space();
    if (consume('}')) return Constraint(attr, std::move(members));
    while (true) {
      skip_space();
      auto member = parse_value();
      if (auto* err = std::get_if<ParseError>(&member)) return *err;
      members.push_back(std::get<Value>(std::move(member)));
      skip_space();
      if (consume(',')) continue;
      break;
    }
    if (!consume('}')) return error("expected '}' closing 'in' set");
    return Constraint(attr, std::move(members));
  }

  /// One literal: quoted string (with \" and \\ escapes), true/false/null
  /// word, or a signed number: digits (int64 unless they carry '.', 'e', or
  /// 'E'), or inf / nan as Value::to_string prints non-finite doubles.
  std::variant<Value, ParseError> parse_value() {
    if (peek() == '"') {
      ++pos_;
      std::string value;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
        value.push_back(text_[pos_++]);
      }
      if (!consume('"')) return error("unterminated string");
      return Value(std::move(value));
    }
    const bool negative = consume('-');
    const bool has_sign = negative || consume('+');
    const std::size_t start = pos_;  // from_chars takes no '+'
    if (is_attr_start(peek())) {
      const std::string word = parse_identifier();
      if (word == "inf") return Value(negative ? -HUGE_VAL : HUGE_VAL);
      if (word == "nan") return Value(negative ? -std::nan("") : std::nan(""));
      if (has_sign) return error("bad number");
      if (word == "true") return Value(true);
      if (word == "false") return Value(false);
      if (word == "null") return Value();
      return error("unquoted value (strings need quotes)");
    }
    bool is_float = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      if (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E') {
        is_float = true;
      }
      ++pos_;
    }
    if (pos_ == start && !has_sign) return error("expected value");
    const std::string_view number =
        text_.substr(start - negative, pos_ - start + negative);
    if (is_float) {
      double parsed = 0.0;
      const auto [ptr, ec] =
          std::from_chars(number.data(), number.data() + number.size(),
                          parsed);
      if (ec != std::errc{} || ptr != number.data() + number.size()) {
        return error("bad number");
      }
      return Value(parsed);
    }
    std::int64_t parsed = 0;
    const auto [ptr, ec] =
        std::from_chars(number.data(), number.data() + number.size(), parsed);
    if (ec != std::errc{} || ptr != number.data() + number.size()) {
      return error("bad number");
    }
    return Value(parsed);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

ParseResult parse_filter(std::string_view text) {
  return Parser(text).run();
}

Filter parse_filter_or_throw(std::string_view text) {
  ParseResult result = parse_filter(text);
  if (auto* err = std::get_if<ParseError>(&result)) {
    throw std::invalid_argument("parse_filter: " + err->message + " at " +
                                std::to_string(err->position) + " in '" +
                                std::string(text) + "'");
  }
  return std::get<Filter>(std::move(result));
}

}  // namespace reef::pubsub
