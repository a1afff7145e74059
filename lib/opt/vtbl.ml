(** Tables keyed by variable id: an array that grows on demand, since
    passes that mint fresh variables key them past [var_count]. *)

type 'a t = { mutable cells : 'a option array }

let create n = { cells = Array.make (max n 1) None }

let find_opt t id =
  if id < Array.length t.cells then Array.unsafe_get t.cells id else None

let replace t id x =
  let n = Array.length t.cells in
  if id >= n then begin
    let cells = Array.make (max (id + 1) (2 * n)) None in
    Array.blit t.cells 0 cells 0 n;
    t.cells <- cells
  end;
  t.cells.(id) <- Some x

let remove t id = if id < Array.length t.cells then t.cells.(id) <- None
