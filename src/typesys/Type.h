//===- typesys/Type.h - Python-style structural types ------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The representation of Python type annotations: interned, immutable trees
/// of the form `Name[Arg1, ..., ArgN]` (e.g. `Dict[str, List[int]]`,
/// `Optional[torch.Tensor]`). A TypeUniverse interns types so equality is
/// pointer identity, parses annotation strings, and implements the two
/// normalisations the paper uses: type erasure `Er(τ)` (Eq. 4, drops all
/// type parameters) and the depth rewriting of Sec. 6.1 (components nested
/// more than two levels deep become `Any`).
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_TYPESYS_TYPE_H
#define TYPILUS_TYPESYS_TYPE_H

#include "support/Archive.h"

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace typilus {

class TypeUniverse;

/// An immutable, interned type. Obtain instances through TypeUniverse.
class Type {
public:
  const std::string &name() const { return Name; }
  const std::vector<const Type *> &args() const { return Args; }
  bool isParametric() const { return !Args.empty(); }

  /// Canonical rendering, e.g. "Dict[str, List[int]]".
  const std::string &str() const { return Repr; }

  /// Maximum nesting level: "int" -> 1, "List[int]" -> 2,
  /// "List[List[int]]" -> 3.
  int depth() const;

private:
  friend class TypeUniverse;
  Type(std::string Name, std::vector<const Type *> Args, std::string Repr)
      : Name(std::move(Name)), Args(std::move(Args)), Repr(std::move(Repr)) {}

  std::string Name;
  std::vector<const Type *> Args;
  std::string Repr;
};

/// A convenience alias: types are always handled by interned pointer.
using TypeRef = const Type *;

/// Creates, interns, parses and normalises types. All TypeRefs are owned by
/// (and valid for the lifetime of) the universe that created them.
class TypeUniverse {
public:
  TypeUniverse();
  TypeUniverse(const TypeUniverse &) = delete;
  TypeUniverse &operator=(const TypeUniverse &) = delete;

  /// Interns the type `Name[Args...]` after normalisation (Union flattening,
  /// dedup and sorting; `Union[T, None]` canonicalised to `Optional[T]`).
  TypeRef get(std::string_view Name, std::vector<TypeRef> Args = {});

  /// Parses an annotation such as "Dict[str, List[int]]". Dotted names
  /// (e.g. "torch.Tensor") and "..." (Ellipsis) are accepted.
  /// \returns nullptr on malformed input.
  TypeRef parse(std::string_view Text);

  /// The type in *this* universe structurally equal to \p T, which may be
  /// owned by another universe; \p T itself when it is owned here. T is
  /// already canonical, so its components intern as they are.
  TypeRef intern(TypeRef T);

  /// Type erasure Er(τ): drops all type parameters ("List[int]" -> "List").
  TypeRef erase(TypeRef T);

  /// Sec. 6.1 preprocessing: components of a parametric type nested more
  /// than two levels deep are rewritten to Any
  /// ("List[List[List[int]]]" -> "List[List[Any]]").
  TypeRef rewriteDeep(TypeRef T);

  /// Well-known types.
  TypeRef any() const { return AnyTy; }
  TypeRef none() const { return NoneTy; }
  TypeRef object() const { return ObjectTy; }

  /// True for types the evaluation excludes as a ground truth (Any, None)
  /// per footnote 2 of the paper.
  bool isExcludedAnnotation(TypeRef T) const {
    return T == AnyTy || T == NoneTy;
  }

  /// Number of distinct interned types (for stats).
  size_t size() const { return Interned.size(); }

  /// Appends the interning table (every type's canonical repr, in the
  /// deterministic repr-sorted order) to the open chunk and returns the
  /// TypeRef -> dense-index map other chunks use to reference types.
  std::map<const Type *, int> save(ArchiveWriter &W) const;

  /// Re-interns a table written by save() into *this* universe, filling
  /// \p ById so index I resolves the types other chunks reference.
  /// Fails with \p Err on malformed or unparsable entries.
  bool load(ArchiveCursor &C, std::vector<const Type *> &ById,
            std::string *Err);

private:
  TypeRef internRaw(std::string_view Name, std::vector<TypeRef> Args);
  TypeRef parseImpl(std::string_view Text, size_t &Pos);

  std::map<std::string, std::unique_ptr<Type>> Interned;
  TypeRef AnyTy = nullptr;
  TypeRef NoneTy = nullptr;
  TypeRef ObjectTy = nullptr;
};

} // namespace typilus

#endif // TYPILUS_TYPESYS_TYPE_H
