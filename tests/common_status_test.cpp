#include "common/status.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace hetkg {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(3), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(3), 3);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  HETKG_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> Doubler(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return 2 * x;
}

Result<int> UsesAssignOrReturn(int x) {
  HETKG_ASSIGN_OR_RETURN(int doubled, Doubler(x));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = UsesAssignOrReturn(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 9);
  Result<int> err = UsesAssignOrReturn(-4);
  EXPECT_FALSE(err.ok());
}

// Reading the value of an error result aborts with the status text in
// every build type, not only where assert() is compiled in.
TEST(ResultDeathTest, ValueOfErrorAbortsWithStatusText) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Result<int> err = Status::InvalidArgument("bad dim");
  EXPECT_DEATH((void)err.value(), "InvalidArgument: bad dim");
  Result<std::string> moved = Status::NotFound("no such file");
  EXPECT_DEATH((void)std::move(moved).value(), "NotFound: no such file");
}

}  // namespace
}  // namespace hetkg
