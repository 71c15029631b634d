module hetsort/bench

go 1.22

require hetsort v0.0.0

replace hetsort => ../
