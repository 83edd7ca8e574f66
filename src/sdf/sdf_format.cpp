#include "sdf/sdf_format.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/lines.hpp"
#include "util/numbers.hpp"

namespace ccs {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw ParseError(line, what);  // Structured: what() renders "line N: ...".
}

}  // namespace

SdfGraph parse_sdf(std::string_view text) {
  SdfGraph sdf;
  bool named = false;
  NameIndex actors;
  for_each_line(text, [&](std::size_t lineno, Tokens t) {
    const std::string_view keyword = t[0];
    if (keyword == "sdf") {
      if (t.size() != 2) fail(lineno, "sdf: expected <name>");
      if (named || sdf.actor_count() != 0)
        fail(lineno, "sdf directive must come first, once");
      sdf = SdfGraph(std::string(t[1]));
      named = true;
    } else if (keyword == "actor") {
      int time = 0;
      if (t.size() != 3 || !parse_whole(t[2], time))
        fail(lineno, "actor: expected <name> <time>");
      if (actors.find(t[1]) != nullptr)
        fail(lineno, "duplicate actor '" + std::string(t[1]) + "'");
      try {
        actors.declare(t[1], sdf.add_actor(std::string(t[1]), time));
      } catch (const GraphError& e) {
        fail(lineno, e.what());
      }
    } else if (keyword == "channel") {
      int produce = 0, consume = 0, tokens = 0;
      long long volume = 1;
      if (t.size() < 5 || t.size() > 7 || !parse_whole(t[3], produce) ||
          !parse_whole(t[4], consume) ||
          (t.size() > 5 && !parse_whole(t[5], tokens)) ||
          (t.size() > 6 && !parse_whole(t[6], volume)))
        fail(lineno,
             "channel: expected <from> <to> <produce> <consume> "
             "[tokens [volume]]");
      const NameIndex::Entry* from = actors.find(t[1]);
      const NameIndex::Entry* to = actors.find(t[2]);
      if (from == nullptr)
        fail(lineno, "unknown actor '" + std::string(t[1]) + "'");
      if (to == nullptr)
        fail(lineno, "unknown actor '" + std::string(t[2]) + "'");
      if (volume < 1) fail(lineno, "token volume must be >= 1");
      try {
        sdf.add_channel(from->id, to->id, produce, consume, tokens,
                        static_cast<std::size_t>(volume));
      } catch (const GraphError& e) {
        fail(lineno, e.what());
      }
    } else {
      fail(lineno, "unknown directive '" + std::string(keyword) + "'");
    }
  });
  return sdf;
}

std::string serialize_sdf(const SdfGraph& sdf) {
  std::ostringstream os;
  os << "sdf " << sdf.name() << '\n';
  for (ActorId a = 0; a < sdf.actor_count(); ++a)
    os << "actor " << sdf.actor(a).name << ' ' << sdf.actor(a).time << '\n';
  for (std::size_t c = 0; c < sdf.channel_count(); ++c) {
    const SdfChannel& ch = sdf.channel(c);
    os << "channel " << sdf.actor(ch.from).name << ' '
       << sdf.actor(ch.to).name << ' ' << ch.produce << ' ' << ch.consume
       << ' ' << ch.initial_tokens << ' ' << ch.token_volume << '\n';
  }
  return os.str();
}

}  // namespace ccs
