module dvod/bench

go 1.24

require dvod v0.0.0

replace dvod => ../
