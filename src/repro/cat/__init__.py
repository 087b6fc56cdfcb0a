"""A herd-style cat DSL over the shared relational AST."""

from .._lazy import attach

_LAZY = {
    "CatModel": "parser",
    "CatSyntaxError": "parser",
    "available_models": "models",
    "cat_consistent": "interp",
    "check_cat": "interp",
    "expr_to_cat": "unparse",
    "extend_env": "interp",
    "formula_to_cat": "unparse",
    "load_model": "models",
    "model_to_cat": "unparse",
    "parse_cat": "parser",
    "ptx_to_cat": "unparse",
    "tokenize": "parser",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
