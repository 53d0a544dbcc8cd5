package metadb

import "fmt"

// env resolves (possibly qualified) column references during
// expression evaluation.
type env func(qual, name string) (Value, error)

// evalCtx carries the evaluation environment: the statement's bound
// arguments, a row binding for column references and, where aggregates
// are legal (SELECT items), an aggregate evaluator bound to the current
// group.
type evalCtx struct {
	args   []Value
	lookup env
	agg    func(a AggExpr) (Value, error)
}

// eval evaluates an expression with SQL three-valued semantics: NULL
// operands propagate through arithmetic and comparisons; AND follows
// Kleene logic.
func eval(e Expr, ctx *evalCtx) (Value, error) {
	switch n := e.(type) {
	case Lit:
		return n.V, nil
	case Param:
		if ctx == nil || n.N >= len(ctx.args) {
			return Value{}, fmt.Errorf("metadb: placeholder %d has no argument", n.N+1)
		}
		return ctx.args[n.N], nil
	case Col:
		if ctx == nil || ctx.lookup == nil {
			return Value{}, fmt.Errorf("metadb: column %q not allowed here", n.Name)
		}
		return ctx.lookup(n.Qual, n.Name)
	case Binary:
		return evalBinary(n, ctx)
	case AggExpr:
		if ctx == nil || ctx.agg == nil {
			return Value{}, fmt.Errorf("metadb: aggregate %s not allowed here", n.Fn)
		}
		return ctx.agg(n)
	}
	return Value{}, fmt.Errorf("metadb: cannot evaluate %T", e)
}

// hasAgg reports whether the expression contains an aggregate call.
func hasAgg(e Expr) bool {
	switch n := e.(type) {
	case AggExpr:
		return true
	case Binary:
		return hasAgg(n.L) || hasAgg(n.R)
	}
	return false
}

func evalBinary(n Binary, ctx *evalCtx) (Value, error) {
	l, err := eval(n.L, ctx)
	if err != nil {
		return Value{}, err
	}
	// AND gets Kleene short-circuit treatment: false AND anything is
	// false, NULL AND true is NULL.
	if n.Op == "AND" && !l.IsNull() && !l.Truth() {
		return B(false), nil
	}
	r, err := eval(n.R, ctx)
	if err != nil {
		return Value{}, err
	}
	if n.Op == "AND" && !r.IsNull() && !r.Truth() {
		return B(false), nil
	}
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}

	switch n.Op {
	case "AND":
		return B(true), nil
	case "=":
		if l.Kind != r.Kind {
			return Value{}, fmt.Errorf("metadb: cannot compare %s with %s", l.Kind, r.Kind)
		}
		return B(Compare(l, r) == 0), nil
	case "+", "*":
		if l.Kind != KindInt || r.Kind != KindInt {
			return Value{}, fmt.Errorf("metadb: %s requires numeric operands, have %s and %s", n.Op, l.Kind, r.Kind)
		}
		if n.Op == "+" {
			return I(l.Int + r.Int), nil
		}
		return I(l.Int * r.Int), nil
	}
	return Value{}, fmt.Errorf("metadb: unknown operator %q", n.Op)
}
