module coordbot/bench

go 1.22

require coordbot v0.0.0

replace coordbot => ../
