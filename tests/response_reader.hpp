// Test-side readers of HTTP responses, all through the shared decoders:
// ResponseReader takes one response in arbitrary slices, read_response()
// reads one off a blocking socket, and decode_trace() writes every event
// of a wire as one line (heads, bodies and chunks, Server-Sent Events,
// ends, a refusal) so that two slicings of the same bytes compare as
// strings, checking on the way that a refusal is sticky and no body or
// chunk exceeds the 64 MiB bound.
#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "web/http.hpp"

namespace ricsa_test {

/// One response fed in slices, head included: `response` gathers the
/// status, the headers and the de-chunked body so far; `terminated` flips
/// when the response ends, `error` when its framing is refused.
struct ResponseReader {
  ricsa::web::ResponseDecoder decoder;
  ricsa::web::HttpClient::Response response;
  bool terminated = false;
  bool error = false;

  void feed(const char* data, std::size_t n) {
    using Event = ricsa::web::ResponseDecoder::Event;
    decoder.buffer().append(data, n);
    for (Event event; !terminated && !error &&
                      (event = decoder.next()) != Event::kNeedMore;) {
      if (event == Event::kHead) {
        response.status = decoder.status();
        response.headers = decoder.headers();
      }
      if (event == Event::kData) response.body += decoder.take_data();
      terminated = event == Event::kDone;
      error = event == Event::kBad;
    }
  }
};

/// Read one response off a blocking fd; `carry` holds bytes already read
/// past previous responses (pipelining), and keeps those read past this
/// one.
inline bool read_response(int fd, std::string& carry,
                          ricsa::web::HttpClient::Response& out) {
  ResponseReader reader;
  reader.feed(carry.data(), carry.size());
  char chunk[16384];
  ssize_t got = 0;
  while (!reader.terminated && !reader.error &&
         (got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    reader.feed(chunk, static_cast<std::size_t>(got));
  }
  carry = std::move(reader.decoder.buffer());
  out = std::move(reader.response);
  return reader.terminated;
}

/// `cuts` are ascending offsets into `wire`; the slices run between them.
inline std::string decode_trace(const std::string& wire,
                                const std::vector<std::size_t>& cuts = {}) {
  using Event = ricsa::web::ResponseDecoder::Event;
  ricsa::web::ResponseDecoder decoder;
  ricsa::web::SseSplitter sse;
  bool event_stream = false;
  std::string trace;
  std::size_t from = 0;
  for (std::size_t i = 0; i <= cuts.size(); ++i) {
    const std::size_t to = i < cuts.size() ? cuts[i] : wire.size();
    decoder.buffer().append(wire, from, to - from);
    from = to;
    for (Event event; (event = decoder.next()) != Event::kNeedMore;) {
      if (event == Event::kBad) {
        decoder.buffer() += "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
        EXPECT_EQ(decoder.next(), Event::kBad) << "a refusal must be sticky";
        return trace + "bad: " + decoder.error() + "\n";
      }
      if (event == Event::kHead) {
        const auto& headers = decoder.headers();
        const auto retry = headers.find("retry-after");
        const auto type = headers.find("content-type");
        event_stream =
            type != headers.end() && type->second == "text/event-stream";
        trace += "head " + std::to_string(decoder.status()) +
                 (retry == headers.end() ? "" : " retry-after=" + retry->second) +
                 "\n";
      } else if (event == Event::kDone) {
        trace += "done\n";
      } else {
        std::string data = decoder.take_data();
        EXPECT_LE(data.size(), std::size_t{64} << 20);
        if (!event_stream) {
          trace += "data " + data + "\n";
          continue;
        }
        sse.feed(std::move(data));
        ricsa::web::SseSplitter::Event ev;
        ricsa::web::SseSplitter::Result result;
        while ((result = sse.next(ev)) ==
               ricsa::web::SseSplitter::Result::kEvent) {
          trace += "event id=" + ev.id + " data=" + ev.data +
                   (ev.comment ? " comment" : "") + "\n";
        }
        if (result == ricsa::web::SseSplitter::Result::kBad) {
          return trace + "bad event\n";
        }
      }
    }
  }
  return trace;
}

}  // namespace ricsa_test
