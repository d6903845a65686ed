//===- typesys/Type.cpp - Python-style structural types --------------------===//

#include "typesys/Type.h"

#include "support/Str.h"

#include <algorithm>
#include <cassert>
#include <cctype>

using namespace typilus;

int Type::depth() const {
  int MaxArg = 0;
  for (TypeRef A : Args)
    MaxArg = std::max(MaxArg, A->depth());
  return 1 + (Args.empty() ? 0 : MaxArg);
}

TypeUniverse::TypeUniverse() {
  AnyTy = internRaw("Any", {});
  NoneTy = internRaw("None", {});
  ObjectTy = internRaw("object", {});
}

static std::string renderType(std::string_view Name,
                              const std::vector<TypeRef> &Args) {
  // The pseudo-constructor "[]" is a bare bracketed list (Callable's
  // parameter list); it renders without a head name.
  std::string Repr(Name == "[]" ? std::string_view() : Name);
  if (Args.empty() && Name != "[]")
    return Repr;
  Repr += '[';
  for (size_t I = 0; I != Args.size(); ++I) {
    if (I != 0)
      Repr += ", ";
    Repr += Args[I]->str();
  }
  Repr += ']';
  return Repr;
}

TypeRef TypeUniverse::internRaw(std::string_view Name,
                                std::vector<TypeRef> Args) {
  std::string Repr = renderType(Name, Args);
  auto It = Interned.find(Repr);
  if (It != Interned.end())
    return It->second.get();
  auto Owned = std::unique_ptr<Type>(
      new Type(std::string(Name), std::move(Args), Repr));
  TypeRef Result = Owned.get();
  Interned.emplace(std::move(Repr), std::move(Owned));
  return Result;
}

TypeRef TypeUniverse::get(std::string_view Name, std::vector<TypeRef> Args) {
  // Normalise Optional[T] to a single-argument "Optional"; Union[T, None]
  // also canonicalises to Optional[T]. Union arguments are flattened,
  // deduplicated and sorted so Union[int, str] == Union[str, int].
  if (Name == "Union") {
    std::vector<TypeRef> Flat;
    bool SawNone = false;
    for (TypeRef A : Args) {
      if (A == NoneTy) {
        SawNone = true;
        continue;
      }
      if (A->name() == "Union") {
        for (TypeRef Inner : A->args())
          Flat.push_back(Inner);
        continue;
      }
      if (A->name() == "Optional") {
        SawNone = true;
        Flat.push_back(A->args()[0]);
        continue;
      }
      Flat.push_back(A);
    }
    std::sort(Flat.begin(), Flat.end(),
              [](TypeRef A, TypeRef B) { return A->str() < B->str(); });
    Flat.erase(std::unique(Flat.begin(), Flat.end()), Flat.end());
    if (Flat.empty())
      return SawNone ? NoneTy : AnyTy;
    TypeRef Inner = Flat.size() == 1 ? Flat[0] : internRaw("Union", Flat);
    if (SawNone)
      return internRaw("Optional", {Inner});
    return Inner;
  }
  if (Name == "Optional") {
    if (Args.size() != 1)
      return nullptr;
    if (Args[0] == NoneTy)
      return NoneTy;
    if (Args[0]->name() == "Optional")
      return Args[0];
    if (Args[0]->name() == "Union")
      return get("Union", {Args[0], NoneTy});
    return internRaw("Optional", std::move(Args));
  }
  return internRaw(Name, std::move(Args));
}

/// Parses one type term starting at \p Pos; advances \p Pos past it.
TypeRef TypeUniverse::parseImpl(std::string_view Text, size_t &Pos) {
  auto SkipWs = [&] {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  };
  SkipWs();
  if (Pos >= Text.size())
    return nullptr;
  // Ellipsis, as in Callable[..., int] or Tuple[int, ...].
  if (Text.compare(Pos, 3, "...") == 0) {
    Pos += 3;
    return internRaw("...", {});
  }
  // A bare bracketed list: Callable[[int, str], bool].
  if (Text[Pos] == '[') {
    ++Pos;
    std::vector<TypeRef> Args;
    SkipWs();
    while (Pos < Text.size() && Text[Pos] != ']') {
      TypeRef Arg = parseImpl(Text, Pos);
      if (!Arg)
        return nullptr;
      Args.push_back(Arg);
      SkipWs();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        SkipWs();
      }
    }
    if (Pos >= Text.size() || Text[Pos] != ']')
      return nullptr;
    ++Pos;
    return internRaw("[]", std::move(Args));
  }
  size_t Start = Pos;
  while (Pos < Text.size() &&
         (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
          Text[Pos] == '_' || Text[Pos] == '.'))
    ++Pos;
  if (Pos == Start)
    return nullptr;
  std::string Name(Text.substr(Start, Pos - Start));
  SkipWs();
  if (Pos >= Text.size() || Text[Pos] != '[')
    return get(Name);
  ++Pos; // consume '['
  std::vector<TypeRef> Args;
  while (true) {
    TypeRef Arg = parseImpl(Text, Pos);
    if (!Arg)
      return nullptr;
    Args.push_back(Arg);
    SkipWs();
    if (Pos < Text.size() && Text[Pos] == ',') {
      ++Pos;
      continue;
    }
    break;
  }
  SkipWs();
  if (Pos >= Text.size() || Text[Pos] != ']')
    return nullptr;
  ++Pos;
  return get(Name, std::move(Args));
}

TypeRef TypeUniverse::parse(std::string_view Text) {
  size_t Pos = 0;
  TypeRef Result = parseImpl(Text, Pos);
  if (!Result)
    return nullptr;
  while (Pos < Text.size() &&
         std::isspace(static_cast<unsigned char>(Text[Pos])))
    ++Pos;
  if (Pos != Text.size())
    return nullptr;
  return Result;
}

std::map<const Type *, int> TypeUniverse::save(ArchiveWriter &W) const {
  // Interned is keyed by the canonical repr, so iteration order (and with
  // it the dense ids) is deterministic for a given set of types.
  W.writeU64(Interned.size());
  std::map<const Type *, int> Ids;
  for (const auto &[Repr, Owned] : Interned) {
    Ids.emplace(Owned.get(), static_cast<int>(Ids.size()));
    W.writeStr(Repr);
  }
  return Ids;
}

bool TypeUniverse::load(ArchiveCursor &C, std::vector<const Type *> &ById,
                        std::string *Err) {
  uint64_t Count = C.readU64();
  if (!C.ok() || Count > C.remaining()) {
    if (Err && Err->empty())
      *Err = "malformed type table";
    return false;
  }
  ById.clear();
  ById.reserve(static_cast<size_t>(Count));
  for (uint64_t I = 0; I != Count; ++I) {
    std::string Repr = C.readStr();
    if (!C.ok()) {
      if (Err && Err->empty())
        *Err = "malformed type table";
      return false;
    }
    // Parametric reprs re-intern through parse(), which recreates every
    // component type. Argument-less reprs intern directly: erase() mints
    // bare parametric heads ("Optional", "Union") that parse() would
    // reject or normalise away.
    TypeRef T = Repr.find('[') == std::string::npos ? internRaw(Repr, {})
                                                    : parse(Repr);
    if (!T) {
      if (Err && Err->empty())
        *Err = "type table entry " + std::to_string(I) + " ('" + Repr +
               "') does not parse";
      return false;
    }
    ById.push_back(T);
  }
  return true;
}

TypeRef TypeUniverse::intern(TypeRef T) {
  auto It = Interned.find(T->str());
  if (It != Interned.end())
    return It->second.get();
  std::vector<TypeRef> Args;
  Args.reserve(T->args().size());
  for (TypeRef A : T->args())
    Args.push_back(intern(A));
  return internRaw(T->name(), std::move(Args));
}

TypeRef TypeUniverse::erase(TypeRef T) {
  assert(T && "erase of null type");
  if (!T->isParametric())
    return T;
  return internRaw(T->name(), {});
}

static TypeRef rewriteDeepImpl(TypeUniverse &U, TypeRef T, int Level) {
  // Outermost constructor is level 1; any component at level >= 3 becomes
  // Any (paper example: List[List[List[int]]] -> List[List[Any]]).
  if (Level >= 3)
    return U.any();
  if (!T->isParametric())
    return T;
  std::vector<TypeRef> Args;
  Args.reserve(T->args().size());
  for (TypeRef A : T->args())
    Args.push_back(rewriteDeepImpl(U, A, Level + 1));
  return U.get(T->name(), std::move(Args));
}

TypeRef TypeUniverse::rewriteDeep(TypeRef T) {
  assert(T && "rewrite of null type");
  return rewriteDeepImpl(*this, T, 1);
}
