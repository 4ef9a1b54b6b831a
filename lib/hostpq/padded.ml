let words = 16

(* [Obj.new_block] fills a scanned block with [()] before the copy, so
   the padding holds immediates and keeps nothing reachable *)
let copy (o : 'a) : 'a =
  let r = Obj.repr o in
  if Obj.is_int r || Obj.tag r >= Obj.lazy_tag then
    invalid_arg "Padded.copy: not a record or an atomic";
  let size = Obj.size r in
  if size >= words then o
  else begin
    let p = Obj.new_block (Obj.tag r) words in
    for i = 0 to size - 1 do
      Obj.set_field p i (Obj.field r i)
    done;
    Obj.obj p
  end
