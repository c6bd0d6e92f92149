// Seeded mutation replay for the parsers of untrusted bytes.
//
// Each case takes a seed-corpus input and applies one to four random
// mutations: a flipped bit, a truncation, a duplicated slice, an inserted
// CRLF, or a spliced token from the parser's own dictionary (runs of '[',
// conflicting Content-Length headers, ...). The generator is the
// project's seeded Xoshiro256, so every run replays the same inputs and a
// failure names the case that reproduces it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/prng.hpp"

namespace ricsa_test {

inline std::string mutate(std::string input, ricsa::util::Xoshiro256& rng,
                          const std::vector<std::string>& tokens) {
  // A position in [0, n].
  const auto upto = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));
  };
  const std::int64_t rounds = rng.uniform_int(1, 4);
  for (std::int64_t r = 0; r < rounds; ++r) {
    switch (rng.uniform_int(0, 4)) {
      case 0:
        if (!input.empty()) {
          input[upto(input.size() - 1)] ^=
              static_cast<char>(1u << rng.uniform_int(0, 7));
        }
        break;
      case 1:
        input.resize(upto(input.size()));
        break;
      case 2: {
        const std::size_t from = upto(input.size());
        const std::string slice =
            input.substr(from, upto(input.size() - from));
        input.insert(upto(input.size()), slice);
        break;
      }
      case 3:
        input.insert(upto(input.size()), "\r\n");
        break;
      default:
        input.insert(upto(input.size()),
                     tokens[upto(tokens.size() - 1)]);
        break;
    }
  }
  return input;
}

}  // namespace ricsa_test
