#include "ecc/reed_solomon.hpp"

#include <algorithm>

#include "common/errors.hpp"
#include "ecc/gf256.hpp"

namespace geoproof::ecc {

namespace {

// Polynomials below are LSB-first: p[i] is the coefficient of x^i.

using Poly = Bytes;

std::size_t degree(const Poly& p) {
  std::size_t d = p.size();
  while (d > 1 && p[d - 1] == 0) --d;
  return d - 1;
}

// Evaluate p at x (LSB-first Horner).
std::uint8_t poly_eval(const Poly& p, std::uint8_t x) {
  std::uint8_t acc = 0;
  for (std::size_t i = p.size(); i-- > 0;) {
    acc = static_cast<std::uint8_t>(gf::mul(acc, x) ^ p[i]);
  }
  return acc;
}

// p * q (LSB-first).
Poly poly_mul(const Poly& p, const Poly& q) {
  Poly out(p.size() + q.size() - 1, 0);
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] == 0) continue;
    for (std::size_t j = 0; j < q.size(); ++j) {
      out[i + j] = static_cast<std::uint8_t>(out[i + j] ^ gf::mul(p[i], q[j]));
    }
  }
  return out;
}

}  // namespace

ReedSolomon::ReedSolomon(unsigned nparity) : np_(nparity) {
  if (np_ == 0 || np_ > 254) {
    throw InvalidArgument("ReedSolomon: nparity must be in [1, 254]");
  }
  // Generator polynomial g(x) = prod_{i=0}^{np-1} (x - alpha^i),
  // highest-degree coefficient first.
  Bytes gen(1, 1);
  for (unsigned i = 0; i < np_; ++i) {
    Bytes next(gen.size() + 1, 0);
    const std::uint8_t a = gf::exp(i);
    for (std::size_t j = 0; j < gen.size(); ++j) {
      next[j] = static_cast<std::uint8_t>(next[j] ^ gen[j]);  // x * g
      next[j + 1] =
          static_cast<std::uint8_t>(next[j + 1] ^ gf::mul(a, gen[j]));
    }
    gen = std::move(next);
  }
  // The encoder only ever multiplies the non-leading coefficients.
  gen_times_.resize(256 * np_);
  for (unsigned x = 0; x < 256; ++x) {
    for (unsigned j = 0; j < np_; ++j) {
      gen_times_[x * np_ + j] =
          gf::mul(gen[j + 1], static_cast<std::uint8_t>(x));
    }
  }
}

void ReedSolomon::parity(BytesView msg, std::span<std::uint8_t> out) const {
  if (msg.size() > max_message_size()) {
    throw InvalidArgument("ReedSolomon::parity: message too long");
  }
  if (out.size() != np_) {
    throw InvalidArgument("ReedSolomon::parity: output is not nparity long");
  }
  // Long division of msg(x) * x^np by g(x), as a shift register: `out`
  // holds the next np remainder terms, less the message symbols not yet
  // added in. After the last symbol it is the remainder: the parity.
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  const std::size_t last = np_ - 1;
  for (const std::uint8_t m : msg) {
    const std::uint8_t* row =
        gen_times_.data() + static_cast<std::size_t>(m ^ out[0]) * np_;
    for (std::size_t j = 0; j < last; ++j) {
      out[j] = static_cast<std::uint8_t>(out[j + 1] ^ row[j]);
    }
    out[last] = row[last];
  }
}

Bytes ReedSolomon::encode(BytesView msg) const {
  Bytes out(msg.size() + np_);
  std::copy(msg.begin(), msg.end(), out.begin());
  parity(msg, std::span<std::uint8_t>(out).subspan(msg.size()));
  return out;
}

bool ReedSolomon::is_codeword(BytesView word) const {
  for (unsigned j = 0; j < np_; ++j) {
    const std::uint8_t x = gf::exp(j);
    std::uint8_t acc = 0;
    for (const std::uint8_t c : word) {
      acc = static_cast<std::uint8_t>(gf::mul(acc, x) ^ c);
    }
    if (acc != 0) return false;
  }
  return true;
}

unsigned ReedSolomon::decode(std::span<std::uint8_t> word,
                             std::span<const std::size_t> erasures) const {
  const std::size_t m = word.size();
  if (m > 255 || m <= np_) {
    throw InvalidArgument("ReedSolomon::decode: bad word length");
  }
  if (erasures.size() > np_) {
    throw DecodeError("ReedSolomon: more erasures than parity symbols");
  }
  for (const std::size_t p : erasures) {
    if (p >= m) {
      throw InvalidArgument("ReedSolomon::decode: erasure out of range");
    }
  }

  // Syndromes S_j = r(alpha^j), j = 0..np-1 (array index p has locator
  // X_p = alpha^(m-1-p) under MSB-first evaluation).
  Poly synd(np_, 0);
  bool all_zero = true;
  for (unsigned j = 0; j < np_; ++j) {
    const std::uint8_t x = gf::exp(j);
    std::uint8_t acc = 0;
    for (const std::uint8_t c : word) {
      acc = static_cast<std::uint8_t>(gf::mul(acc, x) ^ c);
    }
    synd[j] = acc;
    all_zero = all_zero && acc == 0;
  }
  if (all_zero) return 0;  // already a codeword

  const unsigned e = static_cast<unsigned>(erasures.size());

  // Erasure locator Gamma(x) = prod (1 + X_p x); Berlekamp-Massey is
  // initialised with it so it solves for the combined errata locator.
  Poly lambda{1};
  for (const std::size_t p : erasures) {
    const std::uint8_t xp = gf::exp(static_cast<unsigned>(m - 1 - p));
    lambda = poly_mul(lambda, Poly{1, xp});
  }
  Poly b = lambda;
  unsigned el = e;  // current errata-LFSR length

  for (unsigned r = e + 1; r <= np_; ++r) {
    const unsigned n = r - 1;  // syndrome index being matched
    std::uint8_t d = 0;
    const std::size_t upto = std::min<std::size_t>(degree(lambda), n);
    for (std::size_t i = 0; i <= upto; ++i) {
      d = static_cast<std::uint8_t>(d ^ gf::mul(lambda[i], synd[n - i]));
    }
    if (d == 0) {
      b.insert(b.begin(), 0);  // b <- x * b
      continue;
    }
    // t(x) = lambda(x) + d * x * b(x)
    Poly t = lambda;
    if (t.size() < b.size() + 1) t.resize(b.size() + 1, 0);
    for (std::size_t i = 0; i < b.size(); ++i) {
      t[i + 1] = static_cast<std::uint8_t>(t[i + 1] ^ gf::mul(d, b[i]));
    }
    if (2 * el <= n + e) {
      el = n + 1 + e - el;
      // b <- lambda / d
      const std::uint8_t dinv = gf::inv(d);
      b = lambda;
      for (auto& c : b) c = gf::mul(c, dinv);
    } else {
      b.insert(b.begin(), 0);  // b <- x * b
    }
    lambda = std::move(t);
  }

  const std::size_t nerrata = degree(lambda);
  if (nerrata == 0 || nerrata > np_) {
    throw DecodeError("ReedSolomon: errata locator degenerate");
  }

  // Chien search restricted to valid word positions.
  std::vector<std::size_t> positions;
  positions.reserve(nerrata);
  for (std::size_t p = 0; p < m; ++p) {
    const unsigned exponent = static_cast<unsigned>(m - 1 - p);
    const std::uint8_t xinv = gf::exp(255 - exponent % 255);
    if (poly_eval(lambda, xinv) == 0) positions.push_back(p);
  }
  if (positions.size() != nerrata) {
    throw DecodeError(
        "ReedSolomon: errata locator roots do not match (uncorrectable)");
  }

  // Error evaluator Omega(x) = S(x) * Lambda(x) mod x^np.
  Poly omega(np_, 0);
  for (std::size_t i = 0; i < lambda.size() && i < omega.size(); ++i) {
    if (lambda[i] == 0) continue;
    for (std::size_t j = 0; j + i < omega.size() && j < synd.size(); ++j) {
      omega[i + j] =
          static_cast<std::uint8_t>(omega[i + j] ^ gf::mul(lambda[i], synd[j]));
    }
  }

  // Formal derivative Lambda'(x): in characteristic 2 only the odd-degree
  // terms of Lambda survive, shifted down one degree.
  Poly dlambda(lambda.size() > 1 ? lambda.size() - 1 : 1, 0);
  for (std::size_t i = 1; i < lambda.size(); i += 2) {
    dlambda[i - 1] = lambda[i];
  }

  // Forney: e_p = X_p * Omega(X_p^{-1}) / Lambda'(X_p^{-1}).
  for (const std::size_t p : positions) {
    const unsigned exponent = static_cast<unsigned>(m - 1 - p);
    const std::uint8_t xp = gf::exp(exponent);
    const std::uint8_t xinv = gf::exp(255 - exponent % 255);
    const std::uint8_t num = poly_eval(omega, xinv);
    const std::uint8_t den = poly_eval(dlambda, xinv);
    if (den == 0) {
      throw DecodeError("ReedSolomon: Forney denominator zero");
    }
    const std::uint8_t magnitude = gf::mul(xp, gf::div(num, den));
    word[p] = static_cast<std::uint8_t>(word[p] ^ magnitude);
  }

  // Defensive re-check: a decode that "succeeds" must yield a codeword.
  if (!is_codeword(BytesView(word.data(), word.size()))) {
    throw DecodeError("ReedSolomon: correction did not restore a codeword");
  }
  return static_cast<unsigned>(nerrata);
}

}  // namespace geoproof::ecc
