#include "lang/interp.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/error.h"
#include "common/string_util.h"
#include "core/context.h"
#include "nd/buffer.h"

namespace p2g::lang {

namespace {

bool is_float_type(nd::ElementType type) {
  return type == nd::ElementType::kFloat32 ||
         type == nd::ElementType::kFloat64;
}

/// A runtime value of the interpreted language.
struct Value {
  enum class Kind { kInt, kFloat, kArray };
  Kind kind = Kind::kInt;
  int64_t i = 0;
  double f = 0.0;
  std::shared_ptr<nd::AnyBuffer> array;

  static Value of_int(int64_t v) {
    Value out;
    out.kind = Kind::kInt;
    out.i = v;
    return out;
  }
  static Value of_float(double v) {
    Value out;
    out.kind = Kind::kFloat;
    out.f = v;
    return out;
  }
  static Value of_array(std::shared_ptr<nd::AnyBuffer> arr) {
    Value out;
    out.kind = Kind::kArray;
    out.array = std::move(arr);
    return out;
  }

  int64_t as_int() const {
    P2G_CHECK_ARGUMENT(kind != Kind::kArray, "array used as scalar");
    return kind == Kind::kInt ? i : static_cast<int64_t>(f);
  }
  double as_float() const {
    P2G_CHECK_ARGUMENT(kind != Kind::kArray, "array used as scalar");
    return kind == Kind::kInt ? static_cast<double>(i) : f;
  }
  bool truthy() const { return as_int() != 0 || as_float() != 0.0; }
};

/// Field metadata needed by store statements, captured at compile time.
struct FieldMeta {
  nd::ElementType type;
  size_t rank;
};

/// Everything the interpreted kernel bodies share.
struct SharedState {
  ModuleAst module;
  ModuleInfo info;
  std::map<std::string, FieldMeta> fields;
  std::shared_ptr<PrintSink> printed;
};

class Interp {
 public:
  Interp(const SharedState& shared, size_t kernel_index, KernelContext& ctx)
      : shared_(shared),
        kernel_(shared.module.kernels[kernel_index]),
        info_(shared.info.kernels[kernel_index]),
        ctx_(ctx) {}

  void run() {
    // Bind age and index variables.
    if (!kernel_.age_var.empty()) {
      env_[kernel_.age_var] = Value::of_int(ctx_.age());
    }
    for (size_t v = 0; v < kernel_.index_vars.size(); ++v) {
      env_[kernel_.index_vars[v]] = Value::of_int(ctx_.indices()[v]);
    }
    exec_block(kernel_.body);
  }

 private:
  [[noreturn]] void fail(int line, const std::string& message) const {
    throw_error(ErrorKind::kSema, format("kernel '%s' line %d: %s",
                                         kernel_.name.c_str(), line,
                                         message.c_str()));
  }

  Value& variable(const std::string& name, int line) {
    const auto it = env_.find(name);
    if (it == env_.end()) fail(line, "variable '" + name + "' unset");
    return it->second;
  }

  // Returns true when a `return` statement fired.
  bool exec_block(const Block& block) {
    for (const StmtPtr& stmt : block) {
      if (exec_stmt(*stmt)) return true;
    }
    return false;
  }

  bool exec_stmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kLocalDecl: {
        const nd::ElementType type =
            nd::parse_element_type(stmt.type_name);
        if (stmt.rank > 0) {
          env_[stmt.name] = Value::of_array(std::make_shared<nd::AnyBuffer>(
              type, nd::Extents(std::vector<int64_t>(
                        static_cast<size_t>(stmt.rank), 0))));
        } else if (stmt.expr) {
          const Value init = eval(*stmt.expr);
          env_[stmt.name] = is_float_type(type)
                                ? Value::of_float(init.as_float())
                                : Value::of_int(init.as_int());
        } else {
          env_[stmt.name] = is_float_type(type) ? Value::of_float(0.0)
                                                : Value::of_int(0);
        }
        return false;
      }
      case Stmt::Kind::kAssign: {
        const Value rhs = eval(*stmt.expr);
        if (!stmt.indices.empty()) {
          Value& arr = variable(stmt.name, stmt.line);
          if (arr.kind != Value::Kind::kArray) {
            fail(stmt.line, "'" + stmt.name + "' is not an array");
          }
          std::vector<int64_t> idx;
          for (const ExprPtr& e : stmt.indices) {
            idx.push_back(eval(*e).as_int());
          }
          // Compound ops read the old element first.
          double value = rhs.as_float();
          if (stmt.assign_op != AssignOp::kAssign) {
            const double old = element_of(*arr.array, idx, stmt.line);
            value = apply_compound(old, rhs.as_float(), stmt.assign_op);
          }
          put_element(*arr.array, idx, value, stmt.line);
          return false;
        }
        Value& target = variable(stmt.name, stmt.line);
        if (target.kind == Value::Kind::kArray) {
          fail(stmt.line, "cannot assign a scalar to array '" + stmt.name +
                              "'");
        }
        if (stmt.assign_op == AssignOp::kAssign) {
          if (target.kind == Value::Kind::kFloat) {
            target = Value::of_float(rhs.as_float());
          } else {
            target = Value::of_int(rhs.as_int());
          }
        } else if (target.kind == Value::Kind::kFloat) {
          target = Value::of_float(apply_compound(
              target.as_float(), rhs.as_float(), stmt.assign_op));
        } else {
          target = Value::of_int(apply_compound_int(
              target.as_int(), rhs.as_int(), stmt.assign_op, stmt.line));
        }
        return false;
      }
      case Stmt::Kind::kExpr:
        eval(*stmt.expr);
        return false;
      case Stmt::Kind::kIf:
        return eval(*stmt.expr).truthy() ? exec_block(stmt.body)
                                         : exec_block(stmt.else_body);
      case Stmt::Kind::kWhile: {
        int64_t guard = 0;
        while (eval(*stmt.expr).truthy()) {
          if (exec_block(stmt.body)) return true;
          if (++guard > 100'000'000) {
            fail(stmt.line, "while loop exceeded the iteration guard");
          }
        }
        return false;
      }
      case Stmt::Kind::kFor: {
        if (stmt.for_init && exec_stmt(*stmt.for_init)) return true;
        int64_t guard = 0;
        while (stmt.expr == nullptr || eval(*stmt.expr).truthy()) {
          if (exec_block(stmt.body)) return true;
          if (stmt.for_step && exec_stmt(*stmt.for_step)) return true;
          if (++guard > 100'000'000) {
            fail(stmt.line, "for loop exceeded the iteration guard");
          }
        }
        return false;
      }
      case Stmt::Kind::kReturn:
        return true;
      case Stmt::Kind::kFetch: {
        // The runtime prepared this slot under the target variable's name.
        const nd::ConstView& data = ctx_.fetch_view(stmt.name);
        const bool elementwise =
            !stmt.access.slices.empty() &&
            std::all_of(stmt.access.slices.begin(),
                        stmt.access.slices.end(), [](const SliceElem& e) {
                          return e.kind != SliceElem::Kind::kAll;
                        });
        if (elementwise) {
          // Scalar read straight off the view — no packed copy at all.
          env_[stmt.name] = is_float_type(data.type())
                                ? Value::of_float(data.get_as_double(0))
                                : Value::of_int(data.get_as_int(0));
        } else {
          // Array values are mutable in the language; materialize one
          // packed copy (previously this was two copies: fetch + here).
          env_[stmt.name] = Value::of_array(
              std::make_shared<nd::AnyBuffer>(data.materialize()));
        }
        return false;
      }
      case Stmt::Kind::kStore: {
        const std::string slot = "s" + std::to_string(stmt.rank);
        const FieldMeta& meta = shared_.fields.at(stmt.access.field);
        const Value value = eval(*stmt.expr);
        if (value.kind == Value::Kind::kArray) {
          nd::AnyBuffer payload = *value.array;
          if (payload.type() != meta.type) {
            // Convert elementwise to the field's type.
            nd::AnyBuffer converted(meta.type, payload.extents());
            for (int64_t i = 0; i < payload.element_count(); ++i) {
              converted.set_from_double(i, payload.get_as_double(i));
            }
            payload = std::move(converted);
          }
          ctx_.store_array(slot, std::move(payload));
        } else {
          nd::AnyBuffer payload(meta.type, nd::Extents({1}));
          if (is_float_type(meta.type)) {
            payload.set_from_double(0, value.as_float());
          } else {
            payload.set_from_int(0, value.as_int());
          }
          ctx_.store_array(slot, std::move(payload));
        }
        return false;
      }
    }
    return false;
  }

  static double apply_compound(double old, double rhs, AssignOp op) {
    switch (op) {
      case AssignOp::kAssign: return rhs;
      case AssignOp::kAdd: return old + rhs;
      case AssignOp::kSub: return old - rhs;
      case AssignOp::kMul: return old * rhs;
      case AssignOp::kDiv: return old / rhs;
    }
    return rhs;
  }

  int64_t apply_compound_int(int64_t old, int64_t rhs, AssignOp op,
                             int line) const {
    switch (op) {
      case AssignOp::kAssign: return rhs;
      case AssignOp::kAdd: return old + rhs;
      case AssignOp::kSub: return old - rhs;
      case AssignOp::kMul: return old * rhs;
      case AssignOp::kDiv:
        if (rhs == 0) fail(line, "integer division by zero");
        return old / rhs;
    }
    return rhs;
  }

  double element_of(const nd::AnyBuffer& arr,
                    const std::vector<int64_t>& idx, int line) const {
    if (!arr.extents().contains(idx)) {
      fail(line, "array index out of range");
    }
    return arr.get_as_double(arr.extents().flatten(idx));
  }

  void put_element(nd::AnyBuffer& arr, const std::vector<int64_t>& idx,
                   double value, int line) {
    if (idx.size() != arr.extents().rank()) {
      fail(line, "wrong number of indices");
    }
    for (int64_t v : idx) {
      if (v < 0) fail(line, "negative array index");
    }
    if (!arr.extents().contains(idx)) {
      // Implicit local resizing (paper §V-C: "the local field values is
      // resized locally").
      std::vector<int64_t> dims(arr.extents().dims());
      for (size_t d = 0; d < dims.size(); ++d) {
        dims[d] = std::max(dims[d], idx[d] + 1);
      }
      arr.resize(nd::Extents(std::move(dims)));
    }
    if (is_float_type(arr.type())) {
      arr.set_from_double(arr.extents().flatten(idx), value);
    } else {
      arr.set_from_int(arr.extents().flatten(idx),
                       static_cast<int64_t>(value));
    }
  }

  Value eval(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kIntLit:
      case Expr::Kind::kBoolLit:
        return Value::of_int(expr.int_value);
      case Expr::Kind::kFloatLit:
        return Value::of_float(expr.float_value);
      case Expr::Kind::kStringLit:
        fail(expr.line, "strings are only allowed inside print()");
      case Expr::Kind::kVarRef:
        return variable(expr.name, expr.line);
      case Expr::Kind::kIndex: {
        Value& arr = variable(expr.name, expr.line);
        if (arr.kind != Value::Kind::kArray) {
          fail(expr.line, "'" + expr.name + "' is not an array");
        }
        std::vector<int64_t> idx;
        for (const ExprPtr& e : expr.args) {
          idx.push_back(eval(*e).as_int());
        }
        const double value = element_of(*arr.array, idx, expr.line);
        return is_float_type(arr.array->type())
                   ? Value::of_float(value)
                   : Value::of_int(static_cast<int64_t>(value));
      }
      case Expr::Kind::kUnary: {
        const Value operand = eval(*expr.lhs);
        if (expr.unary_op == UnaryOp::kNot) {
          return Value::of_int(operand.truthy() ? 0 : 1);
        }
        return operand.kind == Value::Kind::kFloat
                   ? Value::of_float(-operand.as_float())
                   : Value::of_int(-operand.as_int());
      }
      case Expr::Kind::kBinary:
        return eval_binary(expr);
      case Expr::Kind::kCall:
        return eval_call(expr);
    }
    fail(expr.line, "unhandled expression");
  }

  Value eval_binary(const Expr& expr) {
    const Value lhs = eval(*expr.lhs);
    // Short-circuit logic.
    if (expr.binary_op == BinaryOp::kAnd) {
      if (!lhs.truthy()) return Value::of_int(0);
      return Value::of_int(eval(*expr.rhs).truthy() ? 1 : 0);
    }
    if (expr.binary_op == BinaryOp::kOr) {
      if (lhs.truthy()) return Value::of_int(1);
      return Value::of_int(eval(*expr.rhs).truthy() ? 1 : 0);
    }
    const Value rhs = eval(*expr.rhs);
    const bool float_math = lhs.kind == Value::Kind::kFloat ||
                            rhs.kind == Value::Kind::kFloat;
    switch (expr.binary_op) {
      case BinaryOp::kAdd:
        return float_math
                   ? Value::of_float(lhs.as_float() + rhs.as_float())
                   : Value::of_int(lhs.as_int() + rhs.as_int());
      case BinaryOp::kSub:
        return float_math
                   ? Value::of_float(lhs.as_float() - rhs.as_float())
                   : Value::of_int(lhs.as_int() - rhs.as_int());
      case BinaryOp::kMul:
        return float_math
                   ? Value::of_float(lhs.as_float() * rhs.as_float())
                   : Value::of_int(lhs.as_int() * rhs.as_int());
      case BinaryOp::kDiv:
        if (float_math) {
          return Value::of_float(lhs.as_float() / rhs.as_float());
        }
        if (rhs.as_int() == 0) fail(expr.line, "integer division by zero");
        return Value::of_int(lhs.as_int() / rhs.as_int());
      case BinaryOp::kMod:
        if (rhs.as_int() == 0) fail(expr.line, "modulo by zero");
        return Value::of_int(lhs.as_int() % rhs.as_int());
      case BinaryOp::kEq:
        return Value::of_int(lhs.as_float() == rhs.as_float() ? 1 : 0);
      case BinaryOp::kNe:
        return Value::of_int(lhs.as_float() != rhs.as_float() ? 1 : 0);
      case BinaryOp::kLt:
        return Value::of_int(lhs.as_float() < rhs.as_float() ? 1 : 0);
      case BinaryOp::kLe:
        return Value::of_int(lhs.as_float() <= rhs.as_float() ? 1 : 0);
      case BinaryOp::kGt:
        return Value::of_int(lhs.as_float() > rhs.as_float() ? 1 : 0);
      case BinaryOp::kGe:
        return Value::of_int(lhs.as_float() >= rhs.as_float() ? 1 : 0);
      default:
        fail(expr.line, "unhandled binary operator");
    }
  }

  Value eval_call(const Expr& expr) {
    const std::string& name = expr.name;
    if (name == "get") {
      Value& arr = variable(expr.args[0]->name, expr.line);
      std::vector<int64_t> idx;
      for (size_t i = 1; i < expr.args.size(); ++i) {
        idx.push_back(eval(*expr.args[i]).as_int());
      }
      const double value = element_of(*arr.array, idx, expr.line);
      return is_float_type(arr.array->type())
                 ? Value::of_float(value)
                 : Value::of_int(static_cast<int64_t>(value));
    }
    if (name == "put") {
      Value& arr = variable(expr.args[0]->name, expr.line);
      const double value = eval(*expr.args[1]).as_float();
      std::vector<int64_t> idx;
      for (size_t i = 2; i < expr.args.size(); ++i) {
        idx.push_back(eval(*expr.args[i]).as_int());
      }
      put_element(*arr.array, idx, value, expr.line);
      return Value::of_int(0);
    }
    if (name == "extent") {
      Value& arr = variable(expr.args[0]->name, expr.line);
      const auto dim = static_cast<size_t>(eval(*expr.args[1]).as_int());
      if (dim >= arr.array->extents().rank()) {
        fail(expr.line, "extent dimension out of range");
      }
      return Value::of_int(arr.array->extents().dim(dim));
    }
    if (name == "print") {
      std::ostringstream os;
      for (size_t i = 0; i < expr.args.size(); ++i) {
        if (expr.args[i]->kind == Expr::Kind::kStringLit) {
          os << expr.args[i]->string_value;
          continue;
        }
        const Value value = eval(*expr.args[i]);
        if (i > 0 && expr.args[i - 1]->kind != Expr::Kind::kStringLit) {
          os << " ";
        }
        if (value.kind == Value::Kind::kFloat) {
          os << value.as_float();
        } else if (value.kind == Value::Kind::kArray) {
          os << "{";
          for (int64_t e = 0; e < value.array->element_count(); ++e) {
            if (e > 0) os << ", ";
            if (is_float_type(value.array->type())) {
              os << value.array->get_as_double(e);
            } else {
              os << value.array->get_as_int(e);
            }
          }
          os << "}";
        } else {
          os << value.as_int();
        }
      }
      shared_.printed->append(os.str());
      return Value::of_int(0);
    }
    if (name == "now_ms") {
      return Value::of_float(
          ctx_.timers().elapsed_ms(expr.args[0]->name));
    }
    if (name == "expired") {
      const auto ms = std::chrono::milliseconds(
          eval(*expr.args[1]).as_int());
      return Value::of_int(
          ctx_.timers().expired(expr.args[0]->name, ms) ? 1 : 0);
    }
    if (name == "set_timer") {
      ctx_.timers().set_now(expr.args[0]->name);
      return Value::of_int(0);
    }
    if (name == "continue_age") {
      ctx_.continue_next_age();
      return Value::of_int(0);
    }
    if (name == "sqrt") return Value::of_float(std::sqrt(eval(*expr.args[0]).as_float()));
    if (name == "abs") {
      const Value v = eval(*expr.args[0]);
      return v.kind == Value::Kind::kFloat
                 ? Value::of_float(std::fabs(v.as_float()))
                 : Value::of_int(std::llabs(v.as_int()));
    }
    if (name == "min" || name == "max") {
      const Value a = eval(*expr.args[0]);
      const Value b = eval(*expr.args[1]);
      const bool take_a =
          name == "min" ? a.as_float() <= b.as_float()
                        : a.as_float() >= b.as_float();
      return take_a ? a : b;
    }
    if (name == "int") return Value::of_int(eval(*expr.args[0]).as_int());
    if (name == "float") {
      return Value::of_float(eval(*expr.args[0]).as_float());
    }
    fail(expr.line, "unknown function '" + name + "'");
  }

  const SharedState& shared_;
  const KernelDefAst& kernel_;
  const KernelInfo& info_;
  KernelContext& ctx_;
  std::map<std::string, Value> env_;
};

AgeExpr to_age_expr(const AgeRef& age) {
  return age.kind == AgeRef::Kind::kRelative
             ? AgeExpr::relative(age.offset)
             : AgeExpr::constant(age.offset);
}

Slice to_slice(const FieldAccess& access) {
  if (access.slices.empty()) return Slice::whole();
  Slice slice;
  for (const SliceElem& elem : access.slices) {
    switch (elem.kind) {
      case SliceElem::Kind::kVar: slice.var(elem.name); break;
      case SliceElem::Kind::kConst: slice.at(elem.value); break;
      case SliceElem::Kind::kAll: slice.all(); break;
    }
  }
  return slice;
}

/// Collects store statements; sorted by the slot sema assigned.
void collect_stores(const Block& block,
                    std::vector<const Stmt*>& stores) {
  for (const StmtPtr& stmt : block) {
    if (stmt->kind == Stmt::Kind::kStore) {
      stores.push_back(stmt.get());
    }
    collect_stores(stmt->body, stores);
    collect_stores(stmt->else_body, stores);
    if (stmt->for_init && stmt->for_init->kind == Stmt::Kind::kStore) {
      stores.push_back(stmt->for_init.get());
    }
    if (stmt->for_step && stmt->for_step->kind == Stmt::Kind::kStore) {
      stores.push_back(stmt->for_step.get());
    }
  }
}

}  // namespace

CompiledModule compile_to_program(ModuleAst module) {
  const ModuleInfo info = analyze(module);

  auto shared = std::make_shared<SharedState>();
  shared->printed = std::make_shared<PrintSink>();
  shared->info = info;

  CompiledModule out;
  out.printed = shared->printed;

  ProgramBuilder pb;
  for (const FieldDefAst& field : module.fields) {
    const nd::ElementType type = nd::parse_element_type(field.type_name);
    pb.field(field.name, type, static_cast<size_t>(field.rank),
             field.extents);
    shared->fields.emplace(
        field.name, FieldMeta{type, static_cast<size_t>(field.rank)});
  }

  for (size_t ki = 0; ki < module.kernels.size(); ++ki) {
    const KernelDefAst& kernel = module.kernels[ki];
    KernelBuilder& kb = pb.kernel(kernel.name);
    if (kernel.age_var.empty()) kb.run_once();
    if (kernel.serial) kb.serial();
    for (const std::string& var : kernel.index_vars) kb.index(var);

    for (const size_t si : info.kernels[ki].fetch_statements) {
      const Stmt& stmt = *kernel.body[si];
      kb.fetch(stmt.name, stmt.access.field, to_age_expr(stmt.access.age),
               to_slice(stmt.access));
    }
    std::vector<const Stmt*> stores;
    collect_stores(kernel.body, stores);
    std::sort(stores.begin(), stores.end(),
              [](const Stmt* a, const Stmt* b) { return a->rank < b->rank; });
    for (const Stmt* stmt : stores) {
      kb.store("s" + std::to_string(stmt->rank), stmt->access.field,
               to_age_expr(stmt->access.age), to_slice(stmt->access));
    }

    kb.body([shared, ki](KernelContext& ctx) {
      Interp(*shared, ki, ctx).run();
    });
  }

  // The AST must outlive the lambdas; move it into the shared state last
  // (the builder only borrowed names from it).
  shared->module = std::move(module);

  out.program = pb.build();
  return out;
}

}  // namespace p2g::lang
