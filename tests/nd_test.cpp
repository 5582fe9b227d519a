// Unit tests for the multi-dimensional array substrate (src/nd).
#include <gtest/gtest.h>

#include "dist/message.h"
#include "nd/buffer.h"
#include "nd/extents.h"
#include "nd/region.h"
#include "nd/slice.h"
#include "nd/view.h"

namespace p2g::nd {
namespace {

TEST(Extents, ElementCountAndStrides) {
  Extents e({3, 4, 5});
  EXPECT_EQ(e.rank(), 3u);
  EXPECT_EQ(e.element_count(), 60);
  const auto s = e.strides();
  EXPECT_EQ(s, (std::vector<int64_t>{20, 5, 1}));
}

TEST(Extents, FlattenUnflattenRoundTrip) {
  Extents e({3, 4, 5});
  for (int64_t flat = 0; flat < e.element_count(); ++flat) {
    EXPECT_EQ(e.flatten(e.unflatten(flat)), flat);
  }
}

TEST(Extents, FlattenOutOfRangeThrows) {
  Extents e({3, 4});
  EXPECT_THROW(e.flatten({3, 0}), Error);
  EXPECT_THROW(e.flatten({0, -1}), Error);
  EXPECT_THROW(e.flatten({0}), Error);  // rank mismatch
}

TEST(Extents, MaxWithAndFitsIn) {
  Extents a({3, 4});
  Extents b({5, 2});
  EXPECT_EQ(a.max_with(b), Extents({5, 4}));
  EXPECT_TRUE(a.fits_in(Extents({3, 4})));
  EXPECT_TRUE(a.fits_in(Extents({4, 4})));
  EXPECT_FALSE(a.fits_in(Extents({2, 4})));
}

TEST(Extents, ZeroDimensionIsEmpty) {
  Extents e({0, 5});
  EXPECT_EQ(e.element_count(), 0);
  EXPECT_TRUE(e.empty());
}

TEST(Region, WholeAndPoint) {
  Extents e({2, 3});
  Region w = Region::whole(e);
  EXPECT_EQ(w.element_count(), 6);
  EXPECT_TRUE(w.within(e));
  Region p = Region::point({1, 2});
  EXPECT_EQ(p.element_count(), 1);
  EXPECT_TRUE(p.contains({1, 2}));
  EXPECT_FALSE(p.contains({1, 1}));
}

TEST(Region, IntersectAndUnion) {
  Region a(std::vector<Interval>{Interval{0, 4}, Interval{0, 4}});
  Region b(std::vector<Interval>{Interval{2, 6}, Interval{3, 5}});
  Region i = a.intersect(b);
  EXPECT_EQ(i.interval(0), (Interval{2, 4}));
  EXPECT_EQ(i.interval(1), (Interval{3, 4}));
  Region u = a.bounding_union(b);
  EXPECT_EQ(u.interval(0), (Interval{0, 6}));
  EXPECT_EQ(u.interval(1), (Interval{0, 5}));
}

TEST(Region, EmptyIntersection) {
  Region a(std::vector<Interval>{Interval{0, 2}});
  Region b(std::vector<Interval>{Interval{5, 9}});
  EXPECT_TRUE(a.intersect(b).empty());
}

TEST(Region, ForEachRowMajorOrder) {
  Region r(std::vector<Interval>{Interval{1, 3}, Interval{4, 6}});
  std::vector<Coord> seen;
  r.for_each([&](const Coord& c) { seen.push_back(c); });
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], (Coord{1, 4}));
  EXPECT_EQ(seen[1], (Coord{1, 5}));
  EXPECT_EQ(seen[2], (Coord{2, 4}));
  EXPECT_EQ(seen[3], (Coord{2, 5}));
}

TEST(Region, RequiredExtents) {
  Region r(std::vector<Interval>{Interval{1, 3}, Interval{0, 7}});
  EXPECT_EQ(r.required_extents(), Extents({3, 7}));
}

TEST(ElementTypes, SizesAndNames) {
  EXPECT_EQ(element_size(ElementType::kInt8), 1u);
  EXPECT_EQ(element_size(ElementType::kInt32), 4u);
  EXPECT_EQ(element_size(ElementType::kFloat64), 8u);
  EXPECT_EQ(to_string(ElementType::kInt32), "int32");
  EXPECT_EQ(parse_element_type("float64"), ElementType::kFloat64);
  EXPECT_EQ(parse_element_type("uint8"), ElementType::kUInt8);
  EXPECT_THROW(parse_element_type("bogus"), Error);
}

TEST(AnyBuffer, TypedAccess) {
  AnyBuffer buf(ElementType::kInt32, Extents({2, 3}));
  EXPECT_EQ(buf.element_count(), 6);
  for (int i = 0; i < 6; ++i) buf.data<int32_t>()[i] = i * 10;
  EXPECT_EQ(buf.at<int32_t>(4), 40);
  EXPECT_THROW(buf.data<float>(), Error);
}

TEST(AnyBuffer, GenericScalarAccess) {
  AnyBuffer buf(ElementType::kFloat32, Extents({2}));
  buf.set_from_double(0, 1.5);
  buf.set_from_int(1, 7);
  EXPECT_DOUBLE_EQ(buf.get_as_double(0), 1.5);
  EXPECT_EQ(buf.get_as_int(1), 7);
}

TEST(AnyBuffer, ResizePreservesCoordinates) {
  AnyBuffer buf(ElementType::kInt32, Extents({2, 3}));
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      buf.data<int32_t>()[buf.extents().flatten({r, c})] =
          static_cast<int32_t>(r * 100 + c);
    }
  }
  buf.resize(Extents({4, 5}));
  EXPECT_EQ(buf.extents(), Extents({4, 5}));
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(buf.at<int32_t>(buf.extents().flatten({r, c})),
                r * 100 + c);
    }
  }
}

TEST(AnyBuffer, ResizeShrinkThrows) {
  AnyBuffer buf(ElementType::kInt32, Extents({4}));
  EXPECT_THROW(buf.resize(Extents({2})), Error);
}

TEST(AnyBuffer, ScatterGatherRoundTrip) {
  AnyBuffer buf(ElementType::kInt32, Extents({4, 4}));
  Region region(std::vector<Interval>{Interval{1, 3}, Interval{2, 4}});
  AnyBuffer payload(ElementType::kInt32, Extents({2, 2}));
  for (int i = 0; i < 4; ++i) payload.data<int32_t>()[i] = 100 + i;
  buf.scatter(region, payload.raw());
  EXPECT_EQ(buf.at<int32_t>(buf.extents().flatten({1, 2})), 100);
  EXPECT_EQ(buf.at<int32_t>(buf.extents().flatten({2, 3})), 103);

  AnyBuffer out(ElementType::kInt32, Extents({4}));
  buf.gather(region, out.raw());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out.at<int32_t>(i), 100 + i);
}

// --- element accessor checks ---------------------------------------------
//
// The typed accessors check inline and throw from a cold path; these pin
// the error kinds (and the element count they bound against) on dense and
// strided views and on buffers.

/// The ErrorKind `f` throws; fails the test when it throws nothing.
template <typename F>
ErrorKind thrown_kind(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.kind();
  }
  ADD_FAILURE() << "no error thrown";
  return ErrorKind::kInternal;
}

/// A 4x5 int32 buffer holding its flat index at every element.
AnyBuffer iota_4x5() {
  AnyBuffer buf(ElementType::kInt32, Extents({4, 5}));
  for (int32_t i = 0; i < 20; ++i) buf.set<int32_t>(i, i);
  return buf;
}

TEST(ElementAccess, BufferBoundsAndTypeChecks) {
  AnyBuffer buf = iota_4x5();
  EXPECT_EQ(buf.at<int32_t>(19), 19);
  EXPECT_EQ(thrown_kind([&] { buf.at<int32_t>(-1); }), ErrorKind::kOutOfRange);
  EXPECT_EQ(thrown_kind([&] { buf.at<int32_t>(20); }), ErrorKind::kOutOfRange);
  EXPECT_EQ(thrown_kind([&] { buf.set<int32_t>(-1, 0); }),
            ErrorKind::kOutOfRange);
  EXPECT_EQ(thrown_kind([&] { buf.set<int32_t>(20, 0); }),
            ErrorKind::kOutOfRange);
  EXPECT_EQ(thrown_kind([&] { buf.data<float>(); }), ErrorKind::kTypeMismatch);
  const AnyBuffer& cbuf = buf;
  EXPECT_EQ(thrown_kind([&] { cbuf.data<int64_t>(); }),
            ErrorKind::kTypeMismatch);
  EXPECT_EQ(thrown_kind([&] { buf.at<uint8_t>(0); }),
            ErrorKind::kTypeMismatch);
  EXPECT_EQ(thrown_kind([&] { buf.set<double>(0, 1.0); }),
            ErrorKind::kTypeMismatch);
  try {
    buf.at<int32_t>(20);
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("flat index 20 outside [4x5]"),
              std::string::npos)
        << e.what();
  }
}

TEST(ElementAccess, AliasBufferChecksBeforeAndAfterCopyOnWrite) {
  const AnyBuffer owner = iota_4x5();
  AnyBuffer alias = AnyBuffer::alias(ElementType::kInt32, owner.extents(),
                                     owner.raw(), nullptr);
  EXPECT_EQ(thrown_kind([&] { alias.at<int32_t>(20); }),
            ErrorKind::kOutOfRange);
  alias.set<int32_t>(3, -3);  // materializes into owned storage
  EXPECT_FALSE(alias.external());
  EXPECT_EQ(alias.at<int32_t>(3), -3);
  EXPECT_EQ(owner.at<int32_t>(3), 3) << "writes never touch aliased bytes";
  EXPECT_EQ(thrown_kind([&] { alias.set<int32_t>(-1, 0); }),
            ErrorKind::kOutOfRange);
}

TEST(ElementAccess, DenseViewBoundsAndTypeChecks) {
  const AnyBuffer buf = iota_4x5();
  const ConstView view(ElementType::kInt32, buf.extents(), buf.raw(),
                       nullptr);
  ASSERT_TRUE(view.is_contiguous());
  EXPECT_EQ(view.element_count(), 20);
  for (int64_t i = 0; i < 20; ++i) EXPECT_EQ(view.at_flat<int32_t>(i), i);
  EXPECT_EQ(view.at<int32_t>({3, 4}), 19);
  EXPECT_EQ(thrown_kind([&] { view.at_flat<int32_t>(-1); }),
            ErrorKind::kOutOfRange);
  EXPECT_EQ(thrown_kind([&] { view.at_flat<int32_t>(20); }),
            ErrorKind::kOutOfRange);
  EXPECT_EQ(thrown_kind([&] { view.at<int32_t>({-1, 0}); }),
            ErrorKind::kOutOfRange);
  EXPECT_EQ(thrown_kind([&] { view.at<int32_t>({4, 0}); }),
            ErrorKind::kOutOfRange);
  EXPECT_EQ(thrown_kind([&] { view.at<int32_t>({0, 5}); }),
            ErrorKind::kOutOfRange);
  EXPECT_EQ(thrown_kind([&] { view.at<int32_t>({0}); }),
            ErrorKind::kOutOfRange);  // rank mismatch
  EXPECT_EQ(thrown_kind([&] { view.get_as_int(20); }),
            ErrorKind::kOutOfRange);
  EXPECT_EQ(thrown_kind([&] { view.data<float>(); }),
            ErrorKind::kTypeMismatch);
  EXPECT_EQ(thrown_kind([&] { view.at_flat<int64_t>(0); }),
            ErrorKind::kTypeMismatch);
  EXPECT_EQ(thrown_kind([&] { view.at<uint8_t>({0, 0}); }),
            ErrorKind::kTypeMismatch);
}

TEST(ElementAccess, StridedViewAddressesThroughStrides) {
  const AnyBuffer buf = iota_4x5();
  // The 2x3 window at (1, 1): rows 5 elements apart.
  const ConstView window(ElementType::kInt32, Extents({2, 3}), {5, 1},
                         buf.raw() + 6 * sizeof(int32_t), nullptr);
  // Every other column of rows 0 and 2: no dimension is dense.
  const ConstView sparse(ElementType::kInt32, Extents({2, 3}), {10, 2},
                         buf.raw(), nullptr);
  for (const ConstView* view : {&window, &sparse}) {
    ASSERT_FALSE(view->is_contiguous());
    EXPECT_EQ(view->element_count(), 6);
    EXPECT_EQ(thrown_kind([&] { view->at_flat<int32_t>(-1); }),
              ErrorKind::kOutOfRange);
    EXPECT_EQ(thrown_kind([&] { view->at_flat<int32_t>(6); }),
              ErrorKind::kOutOfRange);
    EXPECT_EQ(thrown_kind([&] { view->at<int32_t>({2, 0}); }),
              ErrorKind::kOutOfRange);
    EXPECT_EQ(thrown_kind([&] { view->at<int32_t>({0, -1}); }),
              ErrorKind::kOutOfRange);
    EXPECT_EQ(thrown_kind([&] { view->get_as_double(6); }),
              ErrorKind::kOutOfRange);
    EXPECT_EQ(thrown_kind([&] { view->at_flat<float>(0); }),
              ErrorKind::kTypeMismatch);
    EXPECT_EQ(thrown_kind([&] { view->data<int32_t>(); }),
              ErrorKind::kInternal);  // raw() of a strided view
  }
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      const int64_t flat = r * 3 + c;
      EXPECT_EQ(window.at_flat<int32_t>(flat), (1 + r) * 5 + 1 + c);
      EXPECT_EQ(window.at<int32_t>({r, c}), (1 + r) * 5 + 1 + c);
      EXPECT_EQ(window.get_as_int(flat), (1 + r) * 5 + 1 + c);
      EXPECT_EQ(sparse.at_flat<int32_t>(flat), r * 10 + c * 2);
      EXPECT_EQ(sparse.at<int32_t>({r, c}), r * 10 + c * 2);
      EXPECT_DOUBLE_EQ(sparse.get_as_double(flat),
                       static_cast<double>(r * 10 + c * 2));
    }
  }
  const AnyBuffer packed = sparse.materialize();
  EXPECT_EQ(packed.at<int32_t>(5), 14);
}

TEST(ElementAccess, ElementCountFollowsEveryShape) {
  // Growing resize.
  AnyBuffer buf(ElementType::kInt32, Extents({2, 3}));
  buf.resize(Extents({4, 5}));
  EXPECT_EQ(buf.element_count(), 20);
  EXPECT_EQ(buf.extents().element_count(), 20);
  buf.set<int32_t>(19, 7);
  EXPECT_EQ(thrown_kind([&] { buf.at<int32_t>(20); }),
            ErrorKind::kOutOfRange);
  // A zero dimension: nothing to access, until a resize gives it room.
  AnyBuffer empty(ElementType::kUInt8, Extents({3, 0}));
  EXPECT_EQ(empty.element_count(), 0);
  EXPECT_EQ(thrown_kind([&] { empty.at<uint8_t>(0); }),
            ErrorKind::kOutOfRange);
  const ConstView empty_view(ElementType::kUInt8, empty.extents(),
                             empty.raw(), nullptr);
  EXPECT_EQ(thrown_kind([&] { empty_view.at_flat<uint8_t>(0); }),
            ErrorKind::kOutOfRange);
  empty.resize(Extents({3, 2}));
  EXPECT_EQ(empty.element_count(), 6);
  empty.set<uint8_t>(5, 1);
  // Rank 0: one element, addressed by flat 0 or the empty coordinate.
  AnyBuffer scalar(ElementType::kFloat64, Extents());
  EXPECT_EQ(scalar.element_count(), 1);
  scalar.set<double>(0, 2.5);
  EXPECT_EQ(thrown_kind([&] { scalar.at<double>(1); }),
            ErrorKind::kOutOfRange);
  const ConstView scalar_view(ElementType::kFloat64, scalar.extents(),
                              scalar.raw(), nullptr);
  EXPECT_EQ(scalar_view.at_flat<double>(0), 2.5);
  EXPECT_EQ(scalar_view.at<double>({}), 2.5);
  EXPECT_EQ(thrown_kind([&] { scalar_view.at_flat<double>(1); }),
            ErrorKind::kOutOfRange);
  // Extents rebuilt from a decoded wire store.
  dist::RemoteStore remote;
  remote.region = Region({Interval{1, 4}, Interval{2, 7}});
  remote.payload.resize(15);
  const dist::RemoteStore decoded = dist::RemoteStore::decode(remote.encode());
  const Extents shape = decoded.region.required_extents();
  EXPECT_EQ(shape, Extents({4, 7}));
  EXPECT_EQ(shape.element_count(), 28);
  std::vector<int64_t> dims;
  for (size_t d = 0; d < decoded.region.rank(); ++d) {
    dims.push_back(decoded.region.interval(d).end -
                   decoded.region.interval(d).begin);
  }
  const Extents payload_shape(std::move(dims));
  EXPECT_EQ(payload_shape.element_count(), 15);
  EXPECT_EQ(payload_shape.element_count(), decoded.region.element_count());
}

TEST(SliceSpec, WholeResolvesToFullExtents) {
  SliceSpec s = SliceSpec::whole();
  EXPECT_TRUE(s.is_whole());
  Region r = s.resolve({}, Extents({3, 4}));
  EXPECT_EQ(r.element_count(), 12);
}

TEST(SliceSpec, VarConstAllResolve) {
  SliceSpec s({SliceDim::variable(0), SliceDim::constant(2),
               SliceDim::all()});
  Bindings b{5};
  Region r = s.resolve(b, Extents({10, 10, 7}));
  EXPECT_EQ(r.interval(0), (Interval{5, 6}));
  EXPECT_EQ(r.interval(1), (Interval{2, 3}));
  EXPECT_EQ(r.interval(2), (Interval{0, 7}));
  EXPECT_FALSE(s.is_elementwise());
  SliceSpec ew({SliceDim::variable(0), SliceDim::constant(1)});
  EXPECT_TRUE(ew.is_elementwise());
}

TEST(SliceSpec, VarsAndDimOfVar) {
  SliceSpec s({SliceDim::variable(1), SliceDim::variable(0),
               SliceDim::variable(1)});
  EXPECT_EQ(s.vars(), (std::vector<int>{1, 0}));
  EXPECT_EQ(s.dim_of_var(1).value(), 0u);
  EXPECT_EQ(s.dim_of_var(0).value(), 1u);
  EXPECT_FALSE(s.dim_of_var(7).has_value());
}

TEST(SliceSpec, ConstrainNarrowsVarRanges) {
  SliceSpec s({SliceDim::variable(0), SliceDim::variable(1)});
  std::vector<Interval> ranges{{0, 100}, {0, 100}};
  Region written(std::vector<Interval>{Interval{3, 5}, Interval{7, 8}});
  ASSERT_TRUE(s.constrain(written, ranges).has_value());
  EXPECT_EQ(ranges[0], (Interval{3, 5}));
  EXPECT_EQ(ranges[1], (Interval{7, 8}));
}

TEST(SliceSpec, ConstrainConstMissReturnsNull) {
  SliceSpec s({SliceDim::constant(9)});
  std::vector<Interval> ranges;
  Region written(std::vector<Interval>{Interval{0, 5}});
  EXPECT_FALSE(s.constrain(written, ranges).has_value());
}

TEST(SliceSpec, ConstrainDisjointVarReturnsNull) {
  SliceSpec s({SliceDim::variable(0)});
  std::vector<Interval> ranges{{10, 20}};
  Region written(std::vector<Interval>{Interval{0, 5}});
  EXPECT_FALSE(s.constrain(written, ranges).has_value());
}

}  // namespace
}  // namespace p2g::nd
