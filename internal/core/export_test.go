package core

// SetTileWidth forces every block visit of two or more dimensions into
// time-skewed tiles of width w (0 restores the caller's budget) and
// returns the previous setting: the tile seam for tests outside the
// package.
func SetTileWidth(w int) int {
	old := tileOverride
	tileOverride = w
	return old
}
