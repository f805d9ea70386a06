#include "ir/tokenizer.h"

#include <cctype>
#include <unordered_set>

namespace reef::ir {

void tokenize_append(std::string_view text, const TokenizerOptions& options,
                     std::string& bytes, std::vector<std::size_t>& ends) {
  std::size_t start = bytes.size();  // first byte of the pending run
  std::size_t run = 0;               // run length, including bytes not kept
  bool all_digits = true;
  const auto flush = [&] {
    if (run >= options.min_length && run <= options.max_length &&
        !(options.drop_numeric && all_digits)) {
      ends.push_back(bytes.size());
      start = bytes.size();
    } else {
      bytes.resize(start);
    }
    run = 0;
    all_digits = true;
  };
  for (const char raw : text) {
    const auto c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      // A run past max_length is rejected at its end, so its bytes past
      // the limit are never needed.
      if (run < options.max_length) {
        bytes.push_back(static_cast<char>(std::tolower(c)));
      }
      ++run;
      if (!std::isdigit(c)) all_digits = false;
    } else {
      flush();
    }
  }
  flush();
}

std::vector<std::string> tokenize(std::string_view text,
                                  const TokenizerOptions& options) {
  std::string bytes;
  std::vector<std::size_t> ends;
  tokenize_append(text, options, bytes, ends);
  std::vector<std::string> tokens;
  tokens.reserve(ends.size());
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    tokens.emplace_back(bytes, begin, end - begin);
    begin = end;
  }
  return tokens;
}

std::vector<std::string> tokenize(std::string_view text) {
  return tokenize(text, TokenizerOptions{});
}

namespace {

const std::unordered_set<std::string_view>& stopword_set() {
  static const std::unordered_set<std::string_view> kStopwords = {
      "a",       "about",   "above",  "after",   "again",   "against",
      "all",     "am",      "an",     "and",     "any",     "are",
      "as",      "at",      "be",     "because", "been",    "before",
      "being",   "below",   "between","both",    "but",     "by",
      "can",     "cannot",  "could",  "did",     "do",      "does",
      "doing",   "down",    "during", "each",    "few",     "for",
      "from",    "further", "had",    "has",     "have",    "having",
      "he",      "her",     "here",   "hers",    "herself", "him",
      "himself", "his",     "how",    "i",       "if",      "in",
      "into",    "is",      "it",     "its",     "itself",  "just",
      "me",      "more",    "most",   "my",      "myself",  "no",
      "nor",     "not",     "now",    "of",      "off",     "on",
      "once",    "only",    "or",     "other",   "our",     "ours",
      "ourselves","out",    "over",   "own",     "said",    "same",
      "she",     "should",  "so",     "some",    "such",    "than",
      "that",    "the",     "their",  "theirs",  "them",    "themselves",
      "then",    "there",   "these",  "they",    "this",    "those",
      "through", "to",      "too",    "under",   "until",   "up",
      "very",    "was",     "we",     "were",    "what",    "when",
      "where",   "which",   "while",  "who",     "whom",    "why",
      "will",    "with",    "would",  "you",     "your",    "yours",
      "yourself","yourselves", "www", "http",    "https",   "com",
      "org",     "net",     "html",   "htm",     "php",     "index",
  };
  return kStopwords;
}

/// Martin Porter's 1980 stemming algorithm, transcribed from the reference
/// implementation. Operates on a lower-case buffer in place.
class PorterStemmer {
 public:
  std::string stem(std::string_view word) {
    if (word.size() < 3) return std::string(word);
    b_.assign(word);
    k_ = static_cast<int>(b_.size()) - 1;
    j_ = 0;
    step1ab();
    step1c();
    step2();
    step3();
    step4();
    step5();
    return b_.substr(0, static_cast<std::size_t>(k_) + 1);
  }

 private:
  std::string b_;
  int k_ = 0;  // offset of last character of the current word
  int j_ = 0;  // offset of last character of the candidate stem

  bool cons(int i) const {
    switch (b_[static_cast<std::size_t>(i)]) {
      case 'a':
      case 'e':
      case 'i':
      case 'o':
      case 'u':
        return false;
      case 'y':
        return i == 0 ? true : !cons(i - 1);
      default:
        return true;
    }
  }

  /// Measures the number of consonant-vowel sequences in [0, j_].
  int m() const {
    int n = 0;
    int i = 0;
    while (true) {
      if (i > j_) return n;
      if (!cons(i)) break;
      ++i;
    }
    ++i;
    while (true) {
      while (true) {
        if (i > j_) return n;
        if (cons(i)) break;
        ++i;
      }
      ++i;
      ++n;
      while (true) {
        if (i > j_) return n;
        if (!cons(i)) break;
        ++i;
      }
      ++i;
    }
  }

  bool vowel_in_stem() const {
    for (int i = 0; i <= j_; ++i) {
      if (!cons(i)) return true;
    }
    return false;
  }

  bool double_cons(int j) const {
    if (j < 1) return false;
    if (b_[static_cast<std::size_t>(j)] != b_[static_cast<std::size_t>(j - 1)])
      return false;
    return cons(j);
  }

  /// cvc(i) is true when i-2..i is consonant-vowel-consonant and the final
  /// consonant is not w, x or y; restores an 'e' heuristically (cav(e),
  /// lov(e), hop(e)).
  bool cvc(int i) const {
    if (i < 2 || !cons(i) || cons(i - 1) || !cons(i - 2)) return false;
    const char ch = b_[static_cast<std::size_t>(i)];
    return ch != 'w' && ch != 'x' && ch != 'y';
  }

  bool ends(std::string_view s) {
    const int length = static_cast<int>(s.size());
    if (length > k_ + 1) return false;
    if (b_.compare(static_cast<std::size_t>(k_ - length + 1),
                   static_cast<std::size_t>(length), s) != 0) {
      return false;
    }
    j_ = k_ - length;
    return true;
  }

  void set_to(std::string_view s) {
    b_.replace(static_cast<std::size_t>(j_) + 1, std::string::npos, s);
    k_ = j_ + static_cast<int>(s.size());
  }

  void replace_if_m_positive(std::string_view s) {
    if (m() > 0) set_to(s);
  }

  // step1ab removes plurals and -ed / -ing.
  void step1ab() {
    if (b_[static_cast<std::size_t>(k_)] == 's') {
      if (ends("sses")) {
        k_ -= 2;
      } else if (ends("ies")) {
        set_to("i");
      } else if (b_[static_cast<std::size_t>(k_) - 1] != 's') {
        --k_;
      }
    }
    if (ends("eed")) {
      if (m() > 0) --k_;
    } else if ((ends("ed") || ends("ing")) && vowel_in_stem()) {
      k_ = j_;
      if (ends("at")) {
        set_to("ate");
      } else if (ends("bl")) {
        set_to("ble");
      } else if (ends("iz")) {
        set_to("ize");
      } else if (double_cons(k_)) {
        --k_;
        const char ch = b_[static_cast<std::size_t>(k_)];
        if (ch == 'l' || ch == 's' || ch == 'z') ++k_;
      } else if (m() == 1 && cvc(k_)) {
        set_to("e");
      }
    }
  }

  // step1c turns terminal y to i when there is another vowel in the stem.
  void step1c() {
    if (ends("y") && vowel_in_stem()) {
      b_[static_cast<std::size_t>(k_)] = 'i';
    }
  }

  // step2 maps double suffixes to single ones when m() > 0.
  void step2() {
    if (k_ < 1) return;
    switch (b_[static_cast<std::size_t>(k_) - 1]) {
      case 'a':
        if (ends("ational")) { replace_if_m_positive("ate"); break; }
        if (ends("tional")) { replace_if_m_positive("tion"); break; }
        break;
      case 'c':
        if (ends("enci")) { replace_if_m_positive("ence"); break; }
        if (ends("anci")) { replace_if_m_positive("ance"); break; }
        break;
      case 'e':
        if (ends("izer")) { replace_if_m_positive("ize"); break; }
        break;
      case 'l':
        if (ends("bli")) { replace_if_m_positive("ble"); break; }
        if (ends("alli")) { replace_if_m_positive("al"); break; }
        if (ends("entli")) { replace_if_m_positive("ent"); break; }
        if (ends("eli")) { replace_if_m_positive("e"); break; }
        if (ends("ousli")) { replace_if_m_positive("ous"); break; }
        break;
      case 'o':
        if (ends("ization")) { replace_if_m_positive("ize"); break; }
        if (ends("ation")) { replace_if_m_positive("ate"); break; }
        if (ends("ator")) { replace_if_m_positive("ate"); break; }
        break;
      case 's':
        if (ends("alism")) { replace_if_m_positive("al"); break; }
        if (ends("iveness")) { replace_if_m_positive("ive"); break; }
        if (ends("fulness")) { replace_if_m_positive("ful"); break; }
        if (ends("ousness")) { replace_if_m_positive("ous"); break; }
        break;
      case 't':
        if (ends("aliti")) { replace_if_m_positive("al"); break; }
        if (ends("iviti")) { replace_if_m_positive("ive"); break; }
        if (ends("biliti")) { replace_if_m_positive("ble"); break; }
        break;
      default:
        break;
    }
  }

  // step3 handles -ic-, -full, -ness etc.
  void step3() {
    switch (b_[static_cast<std::size_t>(k_)]) {
      case 'e':
        if (ends("icate")) { replace_if_m_positive("ic"); break; }
        if (ends("ative")) { replace_if_m_positive(""); break; }
        if (ends("alize")) { replace_if_m_positive("al"); break; }
        break;
      case 'i':
        if (ends("iciti")) { replace_if_m_positive("ic"); break; }
        break;
      case 'l':
        if (ends("ical")) { replace_if_m_positive("ic"); break; }
        if (ends("ful")) { replace_if_m_positive(""); break; }
        break;
      case 's':
        if (ends("ness")) { replace_if_m_positive(""); break; }
        break;
      default:
        break;
    }
  }

  // step4 removes -ant, -ence etc. in context <c>vcvc<v>.
  void step4() {
    if (k_ < 1) return;
    switch (b_[static_cast<std::size_t>(k_) - 1]) {
      case 'a':
        if (ends("al")) break;
        return;
      case 'c':
        if (ends("ance")) break;
        if (ends("ence")) break;
        return;
      case 'e':
        if (ends("er")) break;
        return;
      case 'i':
        if (ends("ic")) break;
        return;
      case 'l':
        if (ends("able")) break;
        if (ends("ible")) break;
        return;
      case 'n':
        if (ends("ant")) break;
        if (ends("ement")) break;
        if (ends("ment")) break;
        if (ends("ent")) break;
        return;
      case 'o':
        if (ends("ion") && j_ >= 0 &&
            (b_[static_cast<std::size_t>(j_)] == 's' ||
             b_[static_cast<std::size_t>(j_)] == 't')) {
          break;
        }
        if (ends("ou")) break;
        return;
      case 's':
        if (ends("ism")) break;
        return;
      case 't':
        if (ends("ate")) break;
        if (ends("iti")) break;
        return;
      case 'u':
        if (ends("ous")) break;
        return;
      case 'v':
        if (ends("ive")) break;
        return;
      case 'z':
        if (ends("ize")) break;
        return;
      default:
        return;
    }
    if (m() > 1) k_ = j_;
  }

  // step5 removes a final -e and reduces -ll to -l in long words.
  void step5() {
    j_ = k_;
    if (b_[static_cast<std::size_t>(k_)] == 'e') {
      const int a = m();
      if (a > 1 || (a == 1 && !cvc(k_ - 1))) --k_;
    }
    if (b_[static_cast<std::size_t>(k_)] == 'l' && double_cons(k_) &&
        m() > 1) {
      --k_;
    }
  }
};

}  // namespace

bool is_stopword(std::string_view term) noexcept {
  return stopword_set().contains(term);
}

std::size_t stopword_count() noexcept { return stopword_set().size(); }

std::string porter_stem(std::string_view word) {
  thread_local PorterStemmer stemmer;
  return stemmer.stem(word);
}

std::vector<std::string> analyze(std::string_view text) {
  std::vector<std::string> terms = tokenize(text);
  std::vector<std::string> out;
  out.reserve(terms.size());
  for (auto& term : terms) {
    if (is_stopword(term)) continue;
    out.push_back(porter_stem(term));
  }
  return out;
}

}  // namespace reef::ir
