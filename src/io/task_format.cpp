#include "io/task_format.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>

namespace trichroma::io {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#') break;  // comment until end of line
    tokens.push_back(tok);
  }
  return tokens;
}

bool is_integer(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = s[0] == '-' ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

/// The value of an is_integer token, or nullopt when it does not fit in T.
template <typename T>
std::optional<T> integer_of(const std::string& s) {
  T out{};
  const auto [end, error] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (error != std::errc{} || end != s.data() + s.size()) return std::nullopt;
  return out;
}

/// Parses `P<color>:<value>` into an interned vertex with the given tag.
VertexId parse_vertex(VertexPool& pool, const std::string& token,
                      const std::string& tag, int num_processes, int line) {
  if (token.size() < 4 || token[0] != 'P') {
    throw ParseError(line, "expected P<color>:<value>, got '" + token + "'");
  }
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos || colon < 2) {
    throw ParseError(line, "missing ':' in vertex '" + token + "'");
  }
  const std::string color_str = token.substr(1, colon - 1);
  if (!is_integer(color_str)) {
    throw ParseError(line, "bad color in vertex '" + token + "'");
  }
  const std::optional<int> color = integer_of<int>(color_str);
  if (!color || *color < 0 || *color >= num_processes) {
    throw ParseError(line, "color out of range in vertex '" + token + "'");
  }
  const std::string value = token.substr(colon + 1);
  if (value.empty()) {
    throw ParseError(line, "empty value in vertex '" + token + "'");
  }
  ValuePool& vals = pool.values();
  std::optional<std::int64_t> number;
  if (is_integer(value)) {
    number = integer_of<std::int64_t>(value);
    if (!number) throw ParseError(line, "value out of range in vertex '" + token + "'");
  }
  const ValueId payload = number ? vals.of_int(*number) : vals.of_string(value);
  return pool.vertex(static_cast<Color>(*color),
                     vals.of_tuple({vals.of_string(tag), payload}));
}

Simplex parse_simplex(VertexPool& pool, const std::vector<std::string>& tokens,
                      std::size_t begin, std::size_t end, const std::string& tag,
                      int num_processes, int line) {
  std::vector<VertexId> vertices;
  for (std::size_t i = begin; i < end; ++i) {
    vertices.push_back(parse_vertex(pool, tokens[i], tag, num_processes, line));
  }
  if (vertices.empty()) throw ParseError(line, "empty simplex");
  // A chromatic simplex has at most one vertex per process.
  std::sort(vertices.begin(), vertices.end(),
            [](VertexId a, VertexId b) { return raw(a) < raw(b); });
  vertices.erase(std::unique(vertices.begin(), vertices.end()), vertices.end());
  if (vertices.size() > static_cast<std::size_t>(num_processes)) {
    throw ParseError(line, "simplex lists " + std::to_string(vertices.size()) +
                               " vertices, more than the " +
                               std::to_string(num_processes) + " processes");
  }
  return Simplex(std::move(vertices));
}

}  // namespace

Task parse_task(const std::string& text) {
  Task task;
  task.pool = std::make_shared<VertexPool>();
  task.num_processes = 0;

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  bool saw_task = false;
  while (std::getline(in, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0];

    if (keyword == "task") {
      if (tokens.size() != 2) throw ParseError(line_no, "task expects one name");
      task.name = tokens[1];
      saw_task = true;
    } else if (keyword == "processes") {
      if (tokens.size() != 2 || !is_integer(tokens[1])) {
        throw ParseError(line_no, "processes expects one integer");
      }
      const std::optional<int> count = integer_of<int>(tokens[1]);
      if (!count || *count < 1 || *count > 8) {
        throw ParseError(line_no, "process count out of range");
      }
      task.num_processes = *count;
    } else if (keyword == "input") {
      if (task.num_processes == 0) {
        throw ParseError(line_no, "'processes' must precede 'input'");
      }
      task.input.add(parse_simplex(*task.pool, tokens, 1, tokens.size(), "in",
                                   task.num_processes, line_no));
    } else if (keyword == "delta") {
      if (task.num_processes == 0) {
        throw ParseError(line_no, "'processes' must precede 'delta'");
      }
      // delta <in simplex> -> <out simplex> [| <out simplex> ...]
      std::size_t arrow = 0;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (tokens[i] == "->") arrow = i;
      }
      if (arrow == 0) throw ParseError(line_no, "delta line missing '->'");
      const Simplex input = parse_simplex(*task.pool, tokens, 1, arrow, "in",
                                          task.num_processes, line_no);
      if (!task.input.contains(input)) {
        throw ParseError(line_no,
                         "delta's input simplex is not part of the input "
                         "complex (declare its facet with 'input' first)");
      }
      std::size_t begin = arrow + 1;
      std::vector<Simplex> images;
      for (std::size_t i = begin; i <= tokens.size(); ++i) {
        if (i == tokens.size() || tokens[i] == "|") {
          if (i == begin) throw ParseError(line_no, "empty image simplex");
          Simplex image = parse_simplex(*task.pool, tokens, begin, i, "out",
                                        task.num_processes, line_no);
          if (image.size() != input.size()) {
            throw ParseError(line_no, "image dimension differs from input's");
          }
          task.output.add(image);
          images.push_back(std::move(image));
          begin = i + 1;
        }
      }
      for (const Simplex& im : images) task.delta.add(input, im);
    } else {
      throw ParseError(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (!saw_task) throw ParseError(line_no, "missing 'task' header");
  if (task.input.empty()) throw ParseError(line_no, "no input facets");
  return task;
}

namespace {

/// Renders a vertex as a format token. Tagged ("in"/"out") payloads print
/// verbatim; anything else falls back to the raw vertex id.
std::string vertex_token(const VertexPool& pool, VertexId v) {
  const ValuePool& vals = pool.values();
  std::string out = "P" + std::to_string(pool.color(v)) + ":";
  const ValueId val = pool.value(v);
  if (vals.kind(val) == ValuePool::Kind::Tuple) {
    const auto elems = vals.elements(val);
    if (elems.size() == 2 && vals.kind(elems[0]) == ValuePool::Kind::Str) {
      if (vals.kind(elems[1]) == ValuePool::Kind::Int) {
        return out + std::to_string(vals.as_int(elems[1]));
      }
      if (vals.kind(elems[1]) == ValuePool::Kind::Str) {
        return out + vals.as_string(elems[1]);
      }
    }
  }
  return out + "v" + std::to_string(raw(v));
}

std::string simplex_tokens(const VertexPool& pool, const Simplex& s) {
  // Order by color so the rendering is independent of interning order
  // (serialize ∘ parse is then a fixed point).
  std::vector<VertexId> verts(s.begin(), s.end());
  std::sort(verts.begin(), verts.end(), [&](VertexId a, VertexId b) {
    return pool.color(a) < pool.color(b);
  });
  std::string out;
  for (std::size_t i = 0; i < verts.size(); ++i) {
    if (i > 0) out += " ";
    out += vertex_token(pool, verts[i]);
  }
  return out;
}

}  // namespace

std::string serialize_task(const Task& task) {
  const VertexPool& pool = *task.pool;
  std::string out;
  std::string name = task.name.empty() ? "unnamed" : task.name;
  for (char& c : name) {
    if (std::isspace(static_cast<unsigned char>(c))) c = '-';
  }
  out += "task " + name + "\n";
  out += "processes " + std::to_string(task.num_processes) + "\n";
  for (const Simplex& f : task.input.facets()) {
    out += "input " + simplex_tokens(pool, f) + "\n";
  }
  for (const Simplex& tau : task.delta.domain()) {
    const auto& images = task.delta.facet_images(tau);
    if (images.empty()) continue;
    out += "delta " + simplex_tokens(pool, tau) + " ->";
    for (std::size_t i = 0; i < images.size(); ++i) {
      if (i > 0) out += " |";
      out += " " + simplex_tokens(pool, images[i]);
    }
    out += "\n";
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string to_dot(const VertexPool& pool, const SimplicialComplex& complex,
                   const std::string& graph_name) {
  static const char* kPalette[] = {"lightcoral", "lightskyblue", "palegreen",
                                   "gold",       "plum",         "khaki"};
  std::string out = "graph \"" + graph_name + "\" {\n";
  out += "  // triangles:\n";
  for (const Simplex& t : complex.simplices(2)) {
    out += "  // " + t.to_string(pool) + "\n";
  }
  out += "  node [style=filled];\n";
  for (VertexId v : complex.vertex_ids()) {
    const int c = pool.color(v) < 0 ? 5 : pool.color(v) % 5;
    out += "  v" + std::to_string(raw(v)) + " [label=\"" + pool.name(v) +
           "\", fillcolor=" + kPalette[c] + "];\n";
  }
  for (const Simplex& e : complex.simplices(1)) {
    out += "  v" + std::to_string(raw(e[0])) + " -- v" + std::to_string(raw(e[1])) +
           ";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace trichroma::io
