"""NDL, the neighborhood definition language.

An operator is a conjunction of atoms over program variables t0, t1, ...:

    program := conj
    conj    := atom { "," atom }
    atom    := "constraint(" name "," var "," var ")"
             | "swap_values(" var "," var ")"
             | "redirect(" var "," var ")"
             | "iterate(" var "-" var "," var "," "(" conj ")" ")"
    var     := "t" digits

``/\\`` is accepted as an alternative conjunction separator.  `constraint`
atoms test or enumerate the binary relation a model constraint induces;
`swap_values` exchanges two variables' values; `redirect` points a
variable at another variable's walk position (an extension beyond the
swap-only atom set: segment reversal on successor arrays needs pointer
reassignment); `iterate` walks the structural successor relation and runs
its body once per step with committed choice.
"""
