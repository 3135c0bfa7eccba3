"""The recursive formatter that ``expr.format_expr`` replaced, kept only as a
test oracle.

It recurses one interpreter frame per tree level, so trees deeper than the
recursion limit need the limit raised first.
"""

from __future__ import annotations

from ultraexp.expr import Exp1, Exp2, Lift, Nat, Prod, Sum, UExpr, Var


def format_expr(e: UExpr) -> str:
    return _fmt(e, 0)


def _fmt(e: UExpr, level: int) -> str:
    match e:
        case Nat(value=v):
            return str(v)
        case Var(name=name, attrs=attrs):
            if attrs:
                return f"{name}:{{{','.join(attrs.names())}}}"
            return name
        case Sum(left=l, right=r):
            s = f"{_fmt(l, 0)} + {_fmt(r, 1)}"
            return f"({s})" if level > 0 else s
        case Prod(left=l, right=r):
            s = f"{_fmt(l, 1)} * {_fmt(r, 2)}"
            return f"({s})" if level > 1 else s
        case Exp1(base=b, exp=x):
            s = f"{_fmt(b, 3)} ^ {_fmt(x, 2)}"
            return f"({s})" if level > 2 else s
        case Exp2(first=f, second=s2):
            return f"E2({_fmt(f, 0)}, {_fmt(s2, 0)})"
        case Lift(fn=fn, arg=a):
            if fn.base is not None:
                return f"{fn.kind}({fn.base}, {_fmt(a, 0)})"
            return f"{fn.kind}({_fmt(a, 0)})"
    raise TypeError(f"not an expression: {e!r}")
