package metadb

import (
	"fmt"
	"math"
	"strings"
)

// env resolves (possibly qualified) column references during
// expression evaluation.
type env func(qual, name string) (Value, error)

// evalCtx carries the evaluation environment: the statement's bound
// arguments, a row binding for column references and, where aggregates
// are legal (SELECT items, HAVING), an aggregate evaluator bound to the
// current group.
type evalCtx struct {
	args   []Value
	lookup env
	agg    func(a AggExpr) (Value, error)
}

// eval evaluates an expression with SQL three-valued semantics: NULL
// operands propagate through arithmetic and comparisons; AND/OR follow
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
	case Unary:
		return evalUnary(n, ctx)
	case Binary:
		return evalBinary(n, ctx)
	case IsNull:
		v, err := eval(n.X, ctx)
		if err != nil {
			return Value{}, err
		}
		return B(v.IsNull() != n.Not), nil
	case InList:
		return evalIn(n, ctx)
	case Call:
		return evalCall(n, ctx)
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
	case Unary:
		return hasAgg(n.X)
	case Binary:
		return hasAgg(n.L) || hasAgg(n.R)
	case IsNull:
		return hasAgg(n.X)
	case InList:
		if hasAgg(n.X) {
			return true
		}
		for _, x := range n.List {
			if hasAgg(x) {
				return true
			}
		}
	case Call:
		for _, x := range n.Args {
			if hasAgg(x) {
				return true
			}
		}
	}
	return false
}

func evalUnary(n Unary, ctx *evalCtx) (Value, error) {
	v, err := eval(n.X, ctx)
	if err != nil {
		return Value{}, err
	}
	switch n.Op {
	case "-":
		switch v.Kind {
		case KindNull:
			return Null(), nil
		case KindInt:
			return I(-v.Int), nil
		case KindFloat:
			return F(-v.Float), nil
		}
		return Value{}, fmt.Errorf("metadb: cannot negate %s", v.Kind)
	case "NOT":
		if v.IsNull() {
			return Null(), nil
		}
		return B(!v.Truth()), nil
	}
	return Value{}, fmt.Errorf("metadb: unknown unary operator %q", n.Op)
}

func evalBinary(n Binary, ctx *evalCtx) (Value, error) {
	// AND/OR get Kleene short-circuit treatment.
	if n.Op == "AND" || n.Op == "OR" {
		l, err := eval(n.L, ctx)
		if err != nil {
			return Value{}, err
		}
		if n.Op == "AND" && !l.IsNull() && !l.Truth() {
			return B(false), nil
		}
		if n.Op == "OR" && !l.IsNull() && l.Truth() {
			return B(true), nil
		}
		r, err := eval(n.R, ctx)
		if err != nil {
			return Value{}, err
		}
		switch {
		case n.Op == "AND":
			if r.IsNull() || l.IsNull() {
				if !r.IsNull() && !r.Truth() {
					return B(false), nil
				}
				return Null(), nil
			}
			return B(l.Truth() && r.Truth()), nil
		default: // OR
			if r.IsNull() || l.IsNull() {
				if !r.IsNull() && r.Truth() {
					return B(true), nil
				}
				return Null(), nil
			}
			return B(l.Truth() || r.Truth()), nil
		}
	}

	l, err := eval(n.L, ctx)
	if err != nil {
		return Value{}, err
	}
	r, err := eval(n.R, ctx)
	if err != nil {
		return Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}

	switch n.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if (l.Kind == KindText) != (r.Kind == KindText) {
			return Value{}, fmt.Errorf("metadb: cannot compare %s with %s", l.Kind, r.Kind)
		}
		c := Compare(l, r)
		switch n.Op {
		case "=":
			return B(c == 0), nil
		case "!=":
			return B(c != 0), nil
		case "<":
			return B(c < 0), nil
		case "<=":
			return B(c <= 0), nil
		case ">":
			return B(c > 0), nil
		default:
			return B(c >= 0), nil
		}
	case "||":
		if l.Kind != KindText || r.Kind != KindText {
			return Value{}, fmt.Errorf("metadb: || requires text operands")
		}
		return S(l.Str + r.Str), nil
	case "LIKE":
		if l.Kind != KindText || r.Kind != KindText {
			return Value{}, fmt.Errorf("metadb: LIKE requires text operands")
		}
		return B(likeMatch(r.Str, l.Str)), nil
	case "+", "-", "*", "/", "%":
		return arith(n.Op, l, r)
	}
	return Value{}, fmt.Errorf("metadb: unknown operator %q", n.Op)
}

func arith(op string, l, r Value) (Value, error) {
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return Value{}, fmt.Errorf("metadb: %s requires numeric operands, have %s and %s", op, l.Kind, r.Kind)
	}
	if l.Kind == KindInt && r.Kind == KindInt {
		a, b := l.Int, r.Int
		switch op {
		case "+":
			return I(a + b), nil
		case "-":
			return I(a - b), nil
		case "*":
			return I(a * b), nil
		case "/":
			if b == 0 {
				return Value{}, fmt.Errorf("metadb: division by zero")
			}
			return I(a / b), nil
		case "%":
			if b == 0 {
				return Value{}, fmt.Errorf("metadb: modulo by zero")
			}
			return I(a % b), nil
		}
	}
	switch op {
	case "+":
		return F(lf + rf), nil
	case "-":
		return F(lf - rf), nil
	case "*":
		return F(lf * rf), nil
	case "/":
		if rf == 0 {
			return Value{}, fmt.Errorf("metadb: division by zero")
		}
		return F(lf / rf), nil
	case "%":
		if rf == 0 {
			return Value{}, fmt.Errorf("metadb: modulo by zero")
		}
		return F(math.Mod(lf, rf)), nil
	}
	return Value{}, fmt.Errorf("metadb: unknown arithmetic operator %q", op)
}

func evalIn(n InList, ctx *evalCtx) (Value, error) {
	x, err := eval(n.X, ctx)
	if err != nil {
		return Value{}, err
	}
	if x.IsNull() {
		return Null(), nil
	}
	sawNull := false
	for _, item := range n.List {
		v, err := eval(item, ctx)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		if Equal(x, v) {
			return B(!n.Not), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return B(n.Not), nil
}

func evalCall(n Call, ctx *evalCtx) (Value, error) {
	argv := make([]Value, len(n.Args))
	for i, a := range n.Args {
		v, err := eval(a, ctx)
		if err != nil {
			return Value{}, err
		}
		argv[i] = v
	}
	want := func(k int) error {
		if len(argv) != k {
			return fmt.Errorf("metadb: %s takes %d argument(s), got %d", n.Name, k, len(argv))
		}
		return nil
	}
	switch n.Name {
	case "LENGTH":
		if err := want(1); err != nil {
			return Value{}, err
		}
		if argv[0].IsNull() {
			return Null(), nil
		}
		if argv[0].Kind != KindText {
			return Value{}, fmt.Errorf("metadb: LENGTH requires text")
		}
		return I(int64(len(argv[0].Str))), nil
	case "UPPER", "LOWER":
		if err := want(1); err != nil {
			return Value{}, err
		}
		if argv[0].IsNull() {
			return Null(), nil
		}
		if argv[0].Kind != KindText {
			return Value{}, fmt.Errorf("metadb: %s requires text", n.Name)
		}
		if n.Name == "UPPER" {
			return S(strings.ToUpper(argv[0].Str)), nil
		}
		return S(strings.ToLower(argv[0].Str)), nil
	case "ABS":
		if err := want(1); err != nil {
			return Value{}, err
		}
		switch argv[0].Kind {
		case KindNull:
			return Null(), nil
		case KindInt:
			if argv[0].Int < 0 {
				return I(-argv[0].Int), nil
			}
			return argv[0], nil
		case KindFloat:
			return F(math.Abs(argv[0].Float)), nil
		}
		return Value{}, fmt.Errorf("metadb: ABS requires a number")
	case "COALESCE":
		for _, v := range argv {
			if !v.IsNull() {
				return v, nil
			}
		}
		return Null(), nil
	}
	return Value{}, fmt.Errorf("metadb: unknown function %q", n.Name)
}

// likeMatch implements SQL LIKE: % matches any run (including empty), _
// matches exactly one byte. Matching is case-sensitive.
func likeMatch(pattern, s string) bool {
	// Iterative two-pointer algorithm with backtracking on %.
	p, si := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case p < len(pattern) && (pattern[p] == '_' || pattern[p] == s[si]):
			p++
			si++
		case p < len(pattern) && pattern[p] == '%':
			star = p
			sBack = si
			p++
		case star >= 0:
			p = star + 1
			sBack++
			si = sBack
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '%' {
		p++
	}
	return p == len(pattern)
}
