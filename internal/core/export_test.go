package core

// SourceArrays exposes a result's sources+storage arrays — the anchored
// polarities and the clock-latched storage nodes — to the package's
// external tests.
func SourceArrays(r *Result) (fixedRise, fixedFall, storage []bool) {
	return r.src.fixedRise, r.src.fixedFall, r.src.storage
}
