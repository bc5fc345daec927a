package main

import "gcx/internal/dead"

func main() {
	var t dead.T
	t.Live()
	_ = dead.Used()
}
