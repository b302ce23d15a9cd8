# The finite shadow of the diagonal fixed-point argument.
#
# If g: A -> Y^A hits every map A -> Y (weak point-surjectivity), then
# every endomap of Y has a fixed point: represent p(y) = f(g(y)(y)) by
# some x and evaluate at x itself.  With |Y| >= 2 the flip map has no
# fixed point, so no such g can exist -- and none can by counting, as
# |A| rows name at most |A| of the |Y|^|A| > |A| maps.

from bkw import lawvere as lv

for size_a, size_y in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)):
    result = lv.search_wps(size_a, size_y)
    if result.witness is None:
        print(f"|A|={size_a} |Y|={size_y}: no witness among "
              f"{result.candidates_checked} candidate maps")
    else:
        print(f"|A|={size_a} |Y|={size_y}: witness rows={result.witness.rows}")
        report = lv.check_fixed_point_property(result.witness)
        for case in report.cases:
            print(f"   endomap {case.endomap} fixes {case.fixed_point} "
                  f"(diagonal point {case.representing_point})")

# The counting reason: a weakly point-surjective g needs |A| >= |Y|^|A|.
print("\n2^2 = 4 > 2 and 2^3 = 8 > 3: the scan above had to exhaust.")
