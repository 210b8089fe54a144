"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from causalsde.expr import BinOp, Call, Neg, Num, Var


def expression_trees(binops=("+", "-", "*", "/", "^"), calls=True, n_vars=4, max_leaves=25):
    """Random expression trees over x1..x<n_vars>.

    Leaves are constants in [0, 100] and coordinates; inner nodes negate,
    apply a binary operator from ``binops`` and, with ``calls``, one of the
    language's functions.
    """
    leaves = st.one_of(
        st.builds(Num, st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
        st.builds(Var, st.integers(min_value=0, max_value=n_vars - 1)),
    )

    def extend(children):
        nodes = [
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from(binops), children, children),
        ]
        if calls:
            nodes += [
                st.builds(
                    Call,
                    st.sampled_from(["sqrt", "exp", "abs", "sin", "cos"]),
                    st.tuples(children),
                ),
                st.builds(
                    Call,
                    st.sampled_from(["pow", "min", "max"]),
                    st.tuples(children, children),
                ),
            ]
        return st.one_of(*nodes)

    return st.recursive(leaves, extend, max_leaves=max_leaves)
