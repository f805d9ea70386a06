// Textual subscription language (§2.1: a pub/sub system with "a
// well-defined event algebra syntax and a specification for valid
// name-value pairs").
//
// Grammar (whitespace-insensitive):
//
//   filter      := constraint ( "&&" constraint )*
//   constraint  := attr op value | attr "any" | attr "in" "{" values "}" |
//                  "has" attr
//   op          := "=" | "!=" | "<" | "<=" | ">" | ">=" |
//                  "=^" (prefix) | "=$" (suffix) | "=*" (contains)
//   attr        := [A-Za-z_][A-Za-z0-9_.]*
//   value       := "quoted string" | number (int or float) | true | false
//   values      := ( value ( "," value )* )?
//
// Examples:
//   stream = "feed" && feed = "http://x/f.rss"
//   symbol = "ACME" && price >= 10.5
//   stream = "video" && text =* "storm" && has link
//
// `has` is the keyword only before a word other than `any` or `in`:
// `has any` is exists("has") (exists("any") is written `any any`).
//
// parse_filter returns the canonicalized Filter or an error message with
// the offending position. Round-trip guarantee: parsing a filter's
// to_string() yields an equal filter.
#pragma once

#include <string>
#include <string_view>
#include <variant>

#include "pubsub/filter.h"

namespace reef::pubsub {

struct ParseError {
  std::string message;
  std::size_t position = 0;  ///< byte offset into the input
};

using ParseResult = std::variant<Filter, ParseError>;

/// Parses the subscription language above.
ParseResult parse_filter(std::string_view text);

/// Convenience wrapper that throws std::invalid_argument on errors;
/// for tests and examples where the input is a literal.
Filter parse_filter_or_throw(std::string_view text);

}  // namespace reef::pubsub
