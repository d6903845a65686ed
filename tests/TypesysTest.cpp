//===- tests/TypesysTest.cpp - typesys/ unit tests --------------------------===//

#include "typesys/Hierarchy.h"
#include "typesys/Type.h"

#include <gtest/gtest.h>

#include <memory>

using namespace typilus;

namespace {

class TypesysTest : public ::testing::Test {
protected:
  TypeUniverse U;
};

class HierarchyTest : public ::testing::Test {
protected:
  HierarchyTest() : H(U) {}
  TypeUniverse U;
  TypeHierarchy H;
};

} // namespace

//===----------------------------------------------------------------------===//
// Interning, parsing and printing
//===----------------------------------------------------------------------===//

TEST_F(TypesysTest, InterningGivesPointerIdentity) {
  EXPECT_EQ(U.parse("int"), U.parse("int"));
  EXPECT_EQ(U.parse("List[int]"), U.parse("List[ int ]"));
  EXPECT_NE(U.parse("List[int]"), U.parse("List[str]"));
}

TEST_F(TypesysTest, InternCopiesATypeFromAnotherUniverse) {
  TypeRef Own = U.parse("Dict[str, List[int]]");
  EXPECT_EQ(U.intern(Own), Own);
  auto Other = std::make_unique<TypeUniverse>();
  const char *Repr = "Optional[Tuple[torch.Tensor, Callable[[int], str]]]";
  TypeRef Foreign = Other->parse(Repr);
  TypeRef Erased = Other->erase(Foreign);
  TypeRef Copy = U.intern(Foreign), ErasedCopy = U.intern(Erased);
  Other.reset(); // the copies must not point into the dead universe
  EXPECT_EQ(Copy->str(), Repr);
  EXPECT_EQ(Copy, U.parse(Copy->str()));
  EXPECT_EQ(ErasedCopy->str(), "Optional");
  EXPECT_EQ(U.intern(U.parse("Dict[str, List[int]]")), Own);
}

TEST_F(TypesysTest, ParsesNestedParametricTypes) {
  TypeRef T = U.parse("Dict[str, List[int]]");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->str(), "Dict[str, List[int]]");
  EXPECT_EQ(T->name(), "Dict");
  ASSERT_EQ(T->args().size(), 2u);
  EXPECT_EQ(T->args()[1]->name(), "List");
}

TEST_F(TypesysTest, ParsesDottedNames) {
  TypeRef T = U.parse("torch.Tensor");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->name(), "torch.Tensor");
}

TEST_F(TypesysTest, ParsesEllipsisAndCallable) {
  TypeRef T = U.parse("Callable[..., int]");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->args().size(), 2u);
  EXPECT_EQ(T->args()[0]->name(), "...");
}

TEST_F(TypesysTest, ParsesCallableParamList) {
  TypeRef T = U.parse("Callable[[int, str], bool]");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->str(), "Callable[[int, str], bool]");
}

TEST_F(TypesysTest, RejectsMalformedTypes) {
  EXPECT_EQ(U.parse(""), nullptr);
  EXPECT_EQ(U.parse("List["), nullptr);
  EXPECT_EQ(U.parse("List[int"), nullptr);
  EXPECT_EQ(U.parse("List[int]]"), nullptr);
  EXPECT_EQ(U.parse("[int"), nullptr);
}

TEST_F(TypesysTest, DepthIsNestingLevel) {
  EXPECT_EQ(U.parse("int")->depth(), 1);
  EXPECT_EQ(U.parse("List[int]")->depth(), 2);
  EXPECT_EQ(U.parse("Dict[str, List[int]]")->depth(), 3);
}

//===----------------------------------------------------------------------===//
// Union / Optional normalisation
//===----------------------------------------------------------------------===//

TEST_F(TypesysTest, UnionIsOrderInsensitive) {
  EXPECT_EQ(U.parse("Union[int, str]"), U.parse("Union[str, int]"));
}

TEST_F(TypesysTest, UnionFlattensAndDedups) {
  EXPECT_EQ(U.parse("Union[int, Union[str, int]]"), U.parse("Union[int, str]"));
  EXPECT_EQ(U.parse("Union[int, int]"), U.parse("int"));
}

TEST_F(TypesysTest, UnionWithNoneIsOptional) {
  EXPECT_EQ(U.parse("Union[int, None]"), U.parse("Optional[int]"));
  EXPECT_EQ(U.parse("Union[None, int, str]"),
            U.parse("Optional[Union[int, str]]"));
}

TEST_F(TypesysTest, OptionalOfOptionalCollapses) {
  EXPECT_EQ(U.parse("Optional[Optional[int]]"), U.parse("Optional[int]"));
}

TEST_F(TypesysTest, OptionalOfNoneIsNone) {
  EXPECT_EQ(U.parse("Optional[None]"), U.none());
}

//===----------------------------------------------------------------------===//
// Erasure and depth rewriting
//===----------------------------------------------------------------------===//

TEST_F(TypesysTest, EraseDropsAllParameters) {
  EXPECT_EQ(U.erase(U.parse("List[int]"))->str(), "List");
  EXPECT_EQ(U.erase(U.parse("Dict[str, List[int]]"))->str(), "Dict");
  EXPECT_EQ(U.erase(U.parse("int"))->str(), "int");
}

TEST_F(TypesysTest, RewriteDeepMatchesPaperExample) {
  // Sec. 6.1: List[List[List[int]]] -> List[List[Any]].
  EXPECT_EQ(U.rewriteDeep(U.parse("List[List[List[int]]]")),
            U.parse("List[List[Any]]"));
}

TEST_F(TypesysTest, RewriteDeepKeepsShallowTypes) {
  EXPECT_EQ(U.rewriteDeep(U.parse("List[int]")), U.parse("List[int]"));
  EXPECT_EQ(U.rewriteDeep(U.parse("int")), U.parse("int"));
}

TEST_F(TypesysTest, ExcludedAnnotations) {
  EXPECT_TRUE(U.isExcludedAnnotation(U.any()));
  EXPECT_TRUE(U.isExcludedAnnotation(U.none()));
  EXPECT_FALSE(U.isExcludedAnnotation(U.parse("int")));
}

//===----------------------------------------------------------------------===//
// Subtyping
//===----------------------------------------------------------------------===//

TEST_F(HierarchyTest, NumericTower) {
  EXPECT_TRUE(H.isSubtype(U.parse("bool"), U.parse("int")));
  EXPECT_TRUE(H.isSubtype(U.parse("int"), U.parse("float")));
  EXPECT_TRUE(H.isSubtype(U.parse("bool"), U.parse("float")));
  EXPECT_FALSE(H.isSubtype(U.parse("float"), U.parse("int")));
}

TEST_F(HierarchyTest, EverythingUnderObject) {
  EXPECT_TRUE(H.isSubtype(U.parse("str"), U.object()));
  EXPECT_TRUE(H.isSubtype(U.parse("List[int]"), U.object()));
}

TEST_F(HierarchyTest, AnyIsBidirectional) {
  EXPECT_TRUE(H.isSubtype(U.any(), U.parse("int")));
  EXPECT_TRUE(H.isSubtype(U.parse("int"), U.any()));
}

TEST_F(HierarchyTest, UniversalCovariance) {
  EXPECT_TRUE(H.isSubtype(U.parse("List[bool]"), U.parse("List[int]")));
  EXPECT_FALSE(H.isSubtype(U.parse("List[str]"), U.parse("List[int]")));
}

TEST_F(HierarchyTest, ParametricUnderBareConstructor) {
  EXPECT_TRUE(H.isSubtype(U.parse("List[int]"), U.parse("List")));
  EXPECT_TRUE(H.isSubtype(U.parse("List"), U.parse("List[int]")));
}

TEST_F(HierarchyTest, ContainerProtocolHierarchy) {
  EXPECT_TRUE(H.isSubtype(U.parse("List[int]"), U.parse("Sequence[int]")));
  EXPECT_TRUE(H.isSubtype(U.parse("Dict[str, int]"), U.parse("Mapping")));
  EXPECT_TRUE(H.isSubtype(U.parse("List[int]"), U.parse("Iterable[int]")));
  EXPECT_FALSE(H.isSubtype(U.parse("Sequence[int]"), U.parse("List[int]")));
}

TEST_F(HierarchyTest, ListLowercaseAliasesList) {
  EXPECT_TRUE(H.isSubtype(U.parse("list"), U.parse("List")));
  EXPECT_TRUE(H.isSubtype(U.parse("List[int]"), U.parse("list")));
}

TEST_F(HierarchyTest, UnionRules) {
  EXPECT_TRUE(H.isSubtype(U.parse("int"), U.parse("Union[int, str]")));
  EXPECT_TRUE(
      H.isSubtype(U.parse("Union[int, bool]"), U.parse("Union[int, str]")));
  EXPECT_FALSE(H.isSubtype(U.parse("Union[int, str]"), U.parse("int")));
}

TEST_F(HierarchyTest, OptionalRules) {
  EXPECT_TRUE(H.isSubtype(U.parse("int"), U.parse("Optional[int]")));
  EXPECT_TRUE(H.isSubtype(U.none(), U.parse("Optional[int]")));
  EXPECT_FALSE(H.isSubtype(U.parse("Optional[int]"), U.parse("int")));
}

TEST_F(HierarchyTest, UserDefinedClasses) {
  H.addClass("Animal");
  H.addClass("Dog", {"Animal"});
  H.addClass("Puppy", {"Dog"});
  EXPECT_TRUE(H.isSubtype(U.parse("Puppy"), U.parse("Animal")));
  EXPECT_FALSE(H.isSubtype(U.parse("Animal"), U.parse("Puppy")));
  EXPECT_TRUE(H.isSubtype(U.parse("List[Dog]"), U.parse("List[Animal]")));
}

TEST_F(HierarchyTest, MultipleInheritance) {
  H.addClass("A");
  H.addClass("B");
  H.addClass("C", {"A", "B"});
  EXPECT_TRUE(H.isSubtype(U.parse("C"), U.parse("A")));
  EXPECT_TRUE(H.isSubtype(U.parse("C"), U.parse("B")));
}

//===----------------------------------------------------------------------===//
// Type neutrality (the paper's evaluation criterion)
//===----------------------------------------------------------------------===//

TEST_F(HierarchyTest, ExactTypeIsNeutral) {
  EXPECT_TRUE(H.isNeutral(U.parse("int"), U.parse("int")));
}

TEST_F(HierarchyTest, SupertypePredictionIsNeutral) {
  EXPECT_TRUE(H.isNeutral(U.parse("bool"), U.parse("int")));
  EXPECT_TRUE(H.isNeutral(U.parse("List[int]"), U.parse("Sequence[int]")));
}

TEST_F(HierarchyTest, SubtypePredictionIsNotNeutral) {
  EXPECT_FALSE(H.isNeutral(U.parse("int"), U.parse("bool")));
}

TEST_F(HierarchyTest, TopPredictionIsNeverNeutral) {
  // τp != ⊤ is required even though τg :< object always holds.
  EXPECT_FALSE(H.isNeutral(U.parse("int"), U.object()));
  EXPECT_FALSE(H.isNeutral(U.parse("int"), U.any()));
}

TEST_F(HierarchyTest, NeutralityUsesDepthRewriting) {
  // Both sides collapse to List[List[Any]] after rewriting.
  EXPECT_TRUE(H.isNeutral(U.parse("List[List[List[int]]]"),
                          U.parse("List[List[List[str]]]")));
}
